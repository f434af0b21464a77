import functools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import secular
from secular.cli import run
from secular.errors import ParseError
from secular.io import (
    dump_document,
    format_fraction,
    matrix_from_doc,
    matrix_to_doc,
    parse_fraction,
)
from secular.matrices import RatMatrix

NOTE23_DOC = {
    "rows": 3,
    "cols": 3,
    "symmetric": True,
    "entries": ["1/1", "-1/1", "0/1", "-1/1", "2/1", "1/1", "0/1", "1/1", "1/1"],
}


# `secular roots` stdout on [[2, 1, 0], [1, 3, 1], [0, 1, 4]] (roots 3 and
# 3 +- sqrt(3)) as Fraction bisection printed it, byte for byte; integer sign
# evaluation must not move a digit.
TRIDIAGONAL_DOC = {
    "rows": 3,
    "cols": 3,
    "entries": ["2", "1", "0", "1", "3", "1", "0", "1", "4"],
}
TRIDIAGONAL_ROOTS = (
    '{\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "sturm-root-isolation",\n'
    '    "source": "sturm-1829"\n'
    '  },\n'
    '  "roots": [\n'
    '    {\n'
    '      "approx": 1.2679491924311228,\n'
    '      "interval": [\n'
    '        "12858532438753691542802718607293/10141204801825835211973625643008",\n'
    '        "3214633109688422885700679651825/2535301200456458802993406410752"\n'
    '      ],\n'
    '      "kind": "isolated",\n'
    '      "multiplicity": 1\n'
    '    },\n'
    '    {\n'
    '      "kind": "exact",\n'
    '      "multiplicity": 1,\n'
    '      "value": "3/1"\n'
    '    },\n'
    '    {\n'
    '      "approx": 4.732050807568878,\n'
    '      "interval": [\n'
    '        "47988696372201319729039035250743/10141204801825835211973625643008",\n'
    '        "23994348186100659864519517625375/5070602400912917605986812821504"\n'
    '      ],\n'
    '      "kind": "isolated",\n'
    '      "multiplicity": 1\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
TRIDIAGONAL_ROOTS_WIDTH_1000 = (
    '{\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "sturm-root-isolation",\n'
    '    "source": "sturm-1829"\n'
    '  },\n'
    '  "roots": [\n'
    '    {\n'
    '      "approx": 1.26763916015625,\n'
    '      "interval": [\n'
    '        "10381/8192",\n'
    '        "2597/2048"\n'
    '      ],\n'
    '      "kind": "isolated",\n'
    '      "multiplicity": 1\n'
    '    },\n'
    '    {\n'
    '      "kind": "exact",\n'
    '      "multiplicity": 1,\n'
    '      "value": "3/1"\n'
    '    },\n'
    '    {\n'
    '      "approx": 4.73175048828125,\n'
    '      "interval": [\n'
    '        "38759/8192",\n'
    '        "19383/4096"\n'
    '      ],\n'
    '      "kind": "isolated",\n'
    '      "multiplicity": 1\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
# eigenvalue 2 twice with a chain of two, and -1
DEFECTIVE_DOC = {
    "rows": 3,
    "cols": 3,
    "entries": ["3", "1", "0", "-1", "1", "0", "1", "1", "-1"],
}
DEFECTIVE_EXPM_T1 = (
    '{\n'
    '  "exponential": [\n'
    '    [\n'
    '      14.7781121978613,\n'
    '      7.38905609893065,\n'
    '      0.0\n'
    '    ],\n'
    '    [\n'
    '      -7.38905609893065,\n'
    '      0.0,\n'
    '      0.0\n'
    '    ],\n'
    '    [\n'
    '      2.3403922192530695,\n'
    '      2.3403922192530695,\n'
    '      0.36787944117144233\n'
    '    ]\n'
    '  ],\n'
    '  "path": "float",\n'
    '  "provenance": {\n'
    '    "algorithm": "matrix-exponential-spectral-projectors",\n'
    '    "source": "weierstrass-1858"\n'
    '  },\n'
    '  "t": 1.0\n'
    '}\n'
)
# M = [[0, I], [-A^-1 B, 0]] has eigenvalues -1/2, 0 (a chain of two) and 1/2
DRIFT_SCENARIO = {
    "kind": "custom",
    "mass": {"rows": 2, "cols": 2, "entries": ["2", "1", "1", "1"]},
    "stiffness": {"rows": 2, "cols": 2, "entries": ["0", "0", "0", "-1/8"]},
    "initial": {"positions": ["1", "-1/2"], "velocities": ["1/3", "0"]},
}
DRIFT_SOLVE_JORDAN = (
    '{\n'
    '  "blocks": [\n'
    '    {\n'
    '      "chain_length": 1,\n'
    '      "psi_degree": 0,\n'
    '      "sigma_im": 0.0,\n'
    '      "sigma_re": -0.5\n'
    '    },\n'
    '    {\n'
    '      "chain_length": 2,\n'
    '      "psi_degree": 1,\n'
    '      "sigma_im": 0.0,\n'
    '      "sigma_re": 0.0\n'
    '    },\n'
    '    {\n'
    '      "chain_length": 1,\n'
    '      "psi_degree": 0,\n'
    '      "sigma_im": 0.0,\n'
    '      "sigma_re": 0.5\n'
    '    }\n'
    '  ],\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "canonical-form-integration",\n'
    '    "source": "jordan-1871"\n'
    '  }\n'
    '}\n'
)

# `diagonalizable` and `weierstrass-reduce` stdout as the Smith-form verdict
# and the per-call adjugates printed it, byte for byte: a Jordan block
# (witness false), a scalar matrix (witness true), a pair with the double
# root 2 and a negative definite pair.
JORDAN_BLOCK_DOC = {"rows": 2, "cols": 2, "entries": ["2", "1", "0", "2"]}
IDENTITY_DOC = {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}
# [[-1/2, 1], [0, 3]]: the eigenvalue -1/2 is exact
NEGATIVE_ROOT_DOC = {"rows": 2, "cols": 2, "entries": ["-1/2", "1", "0", "3"]}
REPEATED_PAIR_DOC = {
    "phi": {"rows": 3, "cols": 3, "entries": ["2", "1", "0", "1", "2", "0", "0", "0", "1"]},
    "psi": {"rows": 3, "cols": 3, "entries": ["4", "2", "0", "2", "4", "0", "0", "0", "3"]},
}
NEGATIVE_PAIR_DOC = {
    "phi": {"rows": 2, "cols": 2, "entries": ["-2", "1", "1", "-2"]},
    "psi": {"rows": 2, "cols": 2, "entries": ["-3", "0", "0", "-3"]},
}
NOTE23_DIAGONALIZABLE = (
    '{\n'
    '  "diagonalizable": true,\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "simple-elementary-divisors-test",\n'
    '    "source": "jordan-1871"\n'
    '  },\n'
    '  "witness": []\n'
    '}\n'
)
JORDAN_BLOCK_DIAGONALIZABLE = (
    '{\n'
    '  "diagonalizable": false,\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "simple-elementary-divisors-test",\n'
    '    "source": "jordan-1871"\n'
    '  },\n'
    '  "witness": [\n'
    '    {\n'
    '      "annihilates_minors_to_order": false,\n'
    '      "factor": {\n'
    '        "coefficients": [\n'
    '          "-2/1",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x-2"\n'
    '      },\n'
    '      "multiplicity": 2\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
IDENTITY_DIAGONALIZABLE = (
    '{\n'
    '  "diagonalizable": true,\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "simple-elementary-divisors-test",\n'
    '    "source": "jordan-1871"\n'
    '  },\n'
    '  "witness": [\n'
    '    {\n'
    '      "annihilates_minors_to_order": true,\n'
    '      "factor": {\n'
    '        "coefficients": [\n'
    '          "-1/1",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x-1"\n'
    '      },\n'
    '      "multiplicity": 2\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
REPEATED_PAIR_REDUCE = (
    '{\n'
    '  "circumstance_check": [\n'
    '    {\n'
    '      "divisible": true,\n'
    '      "factor": {\n'
    '        "coefficients": [\n'
    '          "-3/1",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x-3"\n'
    '      },\n'
    '      "multiplicity": 1\n'
    '    },\n'
    '    {\n'
    '      "divisible": true,\n'
    '      "factor": {\n'
    '        "coefficients": [\n'
    '          "-2/1",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x-2"\n'
    '      },\n'
    '      "multiplicity": 2\n'
    '    }\n'
    '  ],\n'
    '  "components": [\n'
    '    {\n'
    '      "multiplicity": 2,\n'
    '      "root": {\n'
    '        "kind": "exact",\n'
    '        "multiplicity": 2,\n'
    '        "value": "2/1"\n'
    '      },\n'
    '      "theta": {\n'
    '        "cols": 3,\n'
    '        "entries": [\n'
    '          "2/1",\n'
    '          "1/1",\n'
    '          "0/1",\n'
    '          "1/1",\n'
    '          "2/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1"\n'
    '        ],\n'
    '        "rows": 3,\n'
    '        "symmetric": true\n'
    '      }\n'
    '    },\n'
    '    {\n'
    '      "multiplicity": 1,\n'
    '      "root": {\n'
    '        "kind": "exact",\n'
    '        "multiplicity": 1,\n'
    '        "value": "3/1"\n'
    '      },\n'
    '      "theta": {\n'
    '        "cols": 3,\n'
    '        "entries": [\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "0/1",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "rows": 3,\n'
    '        "symmetric": true\n'
    '      }\n'
    '    }\n'
    '  ],\n'
    '  "definiteness": "positive",\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "definite-pair-reduction",\n'
    '    "source": "weierstrass-1858"\n'
    '  },\n'
    '  "verified": true\n'
    '}\n'
)
NEGATIVE_PAIR_REDUCE = (
    '{\n'
    '  "circumstance_check": [\n'
    '    {\n'
    '      "divisible": true,\n'
    '      "factor": {\n'
    '        "coefficients": [\n'
    '          "3/1",\n'
    '          "-4/1",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x^2-4*x+3"\n'
    '      },\n'
    '      "multiplicity": 1\n'
    '    }\n'
    '  ],\n'
    '  "components": [\n'
    '    {\n'
    '      "multiplicity": 1,\n'
    '      "root": {\n'
    '        "kind": "exact",\n'
    '        "multiplicity": 1,\n'
    '        "value": "1/1"\n'
    '      },\n'
    '      "theta": {\n'
    '        "cols": 2,\n'
    '        "entries": [\n'
    '          "-3/2",\n'
    '          "3/2",\n'
    '          "3/2",\n'
    '          "-3/2"\n'
    '        ],\n'
    '        "rows": 2,\n'
    '        "symmetric": true\n'
    '      }\n'
    '    },\n'
    '    {\n'
    '      "multiplicity": 1,\n'
    '      "root": {\n'
    '        "kind": "exact",\n'
    '        "multiplicity": 1,\n'
    '        "value": "3/1"\n'
    '      },\n'
    '      "theta": {\n'
    '        "cols": 2,\n'
    '        "entries": [\n'
    '          "-1/2",\n'
    '          "-1/2",\n'
    '          "-1/2",\n'
    '          "-1/2"\n'
    '        ],\n'
    '        "rows": 2,\n'
    '        "symmetric": true\n'
    '      }\n'
    '    }\n'
    '  ],\n'
    '  "definiteness": "negative",\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "definite-pair-reduction",\n'
    '    "source": "weierstrass-1858"\n'
    '  },\n'
    '  "verified": true\n'
    '}\n'
)

# `inertia` stdout on three forms with a vanishing leading minor, as the
# block determinants and a Fraction congruence diagonal printed them: a form
# without squares (Lagrange's add step), NOTE23 (a zero row) and a zero
# first pivot followed by nonzero block minors (a symmetric swap).
SWAP_2X2_DOC = {"rows": 2, "cols": 2, "entries": ["0", "1", "1", "0"]}
ZERO_FIRST_PIVOT_DOC = {"rows": 3, "cols": 3,
                        "entries": ["0", "1", "2", "1", "1", "0", "2", "0", "1"]}


SWAP_2X2_INERTIA = (
    '{\n'
    '  "method": "congruence-fallback",\n'
    '  "minor_sequence": [\n'
    '    "-1/1",\n'
    '    "0/1",\n'
    '    "1/1"\n'
    '  ],\n'
    '  "negatives": 1,\n'
    '  "path": "exact",\n'
    '  "positives": 1,\n'
    '  "provenance": {\n'
    '    "algorithm": "minor-permanence-inertia",\n'
    '    "source": "darboux-1874"\n'
    '  },\n'
    '  "zeros": 0\n'
    '}\n'
)
NOTE23_INERTIA = (
    '{\n'
    '  "method": "congruence-fallback",\n'
    '  "minor_sequence": [\n'
    '    "0/1",\n'
    '    "1/1",\n'
    '    "1/1",\n'
    '    "1/1"\n'
    '  ],\n'
    '  "negatives": 0,\n'
    '  "path": "exact",\n'
    '  "positives": 2,\n'
    '  "provenance": {\n'
    '    "algorithm": "minor-permanence-inertia",\n'
    '    "source": "darboux-1874"\n'
    '  },\n'
    '  "zeros": 1\n'
    '}\n'
)
ZERO_FIRST_PIVOT_INERTIA = (
    '{\n'
    '  "method": "congruence-fallback",\n'
    '  "minor_sequence": [\n'
    '    "-5/1",\n'
    '    "-1/1",\n'
    '    "0/1",\n'
    '    "1/1"\n'
    '  ],\n'
    '  "negatives": 1,\n'
    '  "path": "exact",\n'
    '  "positives": 2,\n'
    '  "provenance": {\n'
    '    "algorithm": "minor-permanence-inertia",\n'
    '    "source": "darboux-1874"\n'
    '  },\n'
    '  "zeros": 0\n'
    '}\n'
)


# `eigvec --path exact` stdout at the double root 1/2 of det(Psi - s*Phi),
# Phi = S^T S and Psi = S^T diag(1/2, 1/2, 3) S for S = [[1,1,0],[0,1,1],
# [0,0,1]]: the adjugate vanishes there, so the vectors are the nullspace
# of the characteristic matrix at 1/2, as Fraction arithmetic printed them.
REPEATED_ROOT_PENCIL_DOC = {
    "A": {"rows": 3, "cols": 3,
          "entries": ["1/2", "1/2", "0", "1/2", "1", "1/2", "0", "1/2", "7/2"]},
    "B": {"rows": 3, "cols": 3,
          "entries": ["1", "1", "0", "1", "2", "1", "0", "1", "2"]},
    "orientation": "A-sB",
}
REPEATED_ROOT_EIGVEC = (
    '{\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "eigenvector-nullspace",\n'
    '    "source": "cauchy-1829"\n'
    '  },\n'
    '  "root": {\n'
    '    "kind": "exact",\n'
    '    "multiplicity": 2,\n'
    '    "value": "1/2"\n'
    '  },\n'
    '  "vectors": [\n'
    '    [\n'
    '      "1/1",\n'
    '      "0/1",\n'
    '      "0/1"\n'
    '    ],\n'
    '    [\n'
    '      "0/1",\n'
    '      "1/1",\n'
    '      "0/1"\n'
    '    ]\n'
    '  ]\n'
    '}\n'
)


# `weierstrass-reduce` stdout on a negative definite pair with irrational
# roots, reduced on the pair's own pencil s*Phi - Psi: the float pieces of
# the exact root -4/9 hold 0.0 where the positive pair (-Phi, -Psi), negated
# back, printed -0.0.
NEGATIVE_FLOAT_PAIR_DOC = {
    "phi": {"rows": 3, "cols": 3,
            "entries": ["-10", "-6", "-1", "-6", "-9", "-6", "-1", "-6", "-10"]},
    "psi": {"rows": 3, "cols": 3,
            "entries": ["3", "3", "4", "3", "4", "2", "4", "2", "-4"]},
}
NEGATIVE_FLOAT_PAIR_REDUCE = (
    '{\n'
    '  "circumstance_check": [\n'
    '    {\n'
    '      "divisible": true,\n'
    '      "factor": {\n'
    '        "coefficients": [\n'
    '          "-40/243",\n'
    '          "-130/243",\n'
    '          "2/27",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x^3+2/27*x^2-130/243*x-40/243"\n'
    '      },\n'
    '      "multiplicity": 1\n'
    '    }\n'
    '  ],\n'
    '  "components": [\n'
    '    {\n'
    '      "multiplicity": 1,\n'
    '      "root": {\n'
    '        "approx": -0.45094681619695065,\n'
    '        "interval": [\n'
    '          "-10289574040015324157853228067255/22817710804108129226940657696768",\n'
    '          "-120580945781429579974842516413/267395048485642139378210832384"\n'
    '        ],\n'
    '        "kind": "isolated",\n'
    '        "multiplicity": 1\n'
    '      },\n'
    '      "theta": [\n'
    '        [\n'
    '          -4.336556339040361,\n'
    '          -6.231334929054681,\n'
    '          -3.7895571800286385\n'
    '        ],\n'
    '        [\n'
    '          -6.231334929054681,\n'
    '          -8.954002199507801,\n'
    '          -5.445334540906244\n'
    '        ],\n'
    '        [\n'
    '          -3.7895571800286385,\n'
    '          -5.445334540906244,\n'
    '          -3.311554721755212\n'
    '        ]\n'
    '      ]\n'
    '    },\n'
    '    {\n'
    '      "multiplicity": 1,\n'
    '      "root": {\n'
    '        "kind": "exact",\n'
    '        "multiplicity": 1,\n'
    '        "value": "-4/9"\n'
    '      },\n'
    '      "theta": [\n'
    '        [\n'
    '          -4.5,\n'
    '          -3.3306690738754696e-16,\n'
    '          1.3877787807814457e-16\n'
    '        ],\n'
    '        [\n'
    '          -3.3306690738754696e-16,\n'
    '          0.0,\n'
    '          0.0\n'
    '        ],\n'
    '        [\n'
    '          1.3877787807814457e-16,\n'
    '          0.0,\n'
    '          0.0\n'
    '        ]\n'
    '      ]\n'
    '    },\n'
    '    {\n'
    '      "multiplicity": 1,\n'
    '      "root": {\n'
    '        "approx": 0.821317186567321,\n'
    '        "interval": [\n'
    '          "28110867062305280251746874154615/34226566206162193840410986545152",\n'
    '          "56221734124610560503493748309267/68453132412324387680821973090304"\n'
    '        ],\n'
    '        "kind": "isolated",\n'
    '        "multiplicity": 1\n'
    '      },\n'
    '      "theta": [\n'
    '        [\n'
    '          -1.1634436609596392,\n'
    '          0.2313349290546796,\n'
    '          2.7895571800286376\n'
    '        ],\n'
    '        [\n'
    '          0.2313349290546796,\n'
    '          -0.04599780049219837,\n'
    '          -0.5546654590937561\n'
    '        ],\n'
    '        [\n'
    '          2.7895571800286376,\n'
    '          -0.5546654590937561,\n'
    '          -6.688445278244789\n'
    '        ]\n'
    '      ]\n'
    '    }\n'
    '  ],\n'
    '  "definiteness": "negative",\n'
    '  "path": "float",\n'
    '  "provenance": {\n'
    '    "algorithm": "definite-pair-reduction",\n'
    '    "source": "weierstrass-1858"\n'
    '  },\n'
    '  "verified": true\n'
    '}\n'
)

# `darboux-steps` stdout on a symmetric matrix with denominators (roots 2/3
# and two irrational ones), as the similarity pencil's roots and Fraction
# samples M - lambda*I printed it, byte for byte.
DENOMINATOR_SYMMETRIC_DOC = {
    "rows": 3, "cols": 3,
    "entries": ["1/2", "1/3", "0", "1/3", "-1", "0", "0", "0", "2/3"],
}
DENOMINATOR_DARBOUX = (
    '{\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "signature-step-scan",\n'
    '    "source": "darboux-1874"\n'
    '  },\n'
    '  "steps": [\n'
    '    {\n'
    '      "jump": -1,\n'
    '      "root": {\n'
    '        "approx": -1.0707381501496753,\n'
    '        "interval": [\n'
    '          "-8143931152347000177102294254101/7605903601369376408980219232256",\n'
    '          "-48863586914082001062613765524577/45635421608216258453881315393536"\n'
    '        ],\n'
    '        "kind": "isolated",\n'
    '        "multiplicity": 1\n'
    '      }\n'
    '    },\n'
    '    {\n'
    '      "jump": -1,\n'
    '      "root": {\n'
    '        "approx": 0.5707381501496754,\n'
    '        "interval": [\n'
    '          "26045876109973871835673107827795/45635421608216258453881315393536",\n'
    '          "1627867256873366989729569239239/2852213850513516153367582212096"\n'
    '        ],\n'
    '        "kind": "isolated",\n'
    '        "multiplicity": 1\n'
    '      }\n'
    '    },\n'
    '    {\n'
    '      "jump": -1,\n'
    '      "root": {\n'
    '        "kind": "exact",\n'
    '        "multiplicity": 1,\n'
    '        "value": "2/3"\n'
    '      }\n'
    '    }\n'
    '  ]\n'
    '}\n'
)

# A bare matrix whose classical characteristic polynomial has a rational,
# negative content: -x^3+7/4*x^2+1847/1800*x-103/150.  `charpoly`,
# `invariant-factors` and `elementary-divisors` stdout on it, byte for byte,
# as the Fraction-tuple `Poly` printed them.
NEGATIVE_CONTENT_DOC = {
    "rows": 3, "cols": 3,
    "entries": ["1/2", "-1/3", "0", "-1/3", "2", "1/5", "0", "1/5", "-3/4"],
}
NEGATIVE_CONTENT_CHARPOLY = (
    '{\n'
    '  "charpoly": {\n'
    '    "coefficients": [\n'
    '      "-103/150",\n'
    '      "1847/1800",\n'
    '      "7/4",\n'
    '      "-1/1"\n'
    '    ],\n'
    '    "display": "-x^3+7/4*x^2+1847/1800*x-103/150"\n'
    '  },\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "characteristic-determinant",\n'
    '    "source": "cauchy-1829"\n'
    '  }\n'
    '}\n'
)

NEGATIVE_CONTENT_INVARIANT_FACTORS = (
    '{\n'
    '  "invariant_factors": [\n'
    '    {\n'
    '      "coefficients": [\n'
    '        "1/1"\n'
    '      ],\n'
    '      "display": "1"\n'
    '    },\n'
    '    {\n'
    '      "coefficients": [\n'
    '        "1/1"\n'
    '      ],\n'
    '      "display": "1"\n'
    '    },\n'
    '    {\n'
    '      "coefficients": [\n'
    '        "103/150",\n'
    '        "-1847/1800",\n'
    '        "-7/4",\n'
    '        "1/1"\n'
    '      ],\n'
    '      "display": "x^3-7/4*x^2-1847/1800*x+103/150"\n'
    '    }\n'
    '  ],\n'
    '  "minor_gcds": [\n'
    '    {\n'
    '      "coefficients": [\n'
    '        "1/1"\n'
    '      ],\n'
    '      "display": "1"\n'
    '    },\n'
    '    {\n'
    '      "coefficients": [\n'
    '        "1/1"\n'
    '      ],\n'
    '      "display": "1"\n'
    '    },\n'
    '    {\n'
    '      "coefficients": [\n'
    '        "103/150",\n'
    '        "-1847/1800",\n'
    '        "-7/4",\n'
    '        "1/1"\n'
    '      ],\n'
    '      "display": "x^3-7/4*x^2-1847/1800*x+103/150"\n'
    '    }\n'
    '  ],\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "minor-gcd-invariant-factors",\n'
    '    "source": "kronecker-1874"\n'
    '  }\n'
    '}\n'
)

NEGATIVE_CONTENT_ELEMENTARY_DIVISORS = (
    '{\n'
    '  "elementary_divisors": [\n'
    '    {\n'
    '      "exponent": 1,\n'
    '      "irreducible": {\n'
    '        "coefficients": [\n'
    '          "103/150",\n'
    '          "-1847/1800",\n'
    '          "-7/4",\n'
    '          "1/1"\n'
    '        ],\n'
    '        "display": "x^3-7/4*x^2-1847/1800*x+103/150"\n'
    '      }\n'
    '    }\n'
    '  ],\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "elementary-divisors",\n'
    '    "source": "weierstrass-1868"\n'
    '  }\n'
    '}\n'
)
# mass [[2, 1], [1, 2]] + [1] and stiffness twice its upper block + [3]: the
# double root 2 has the kernel e1, e2, and e2 loses its part along e1 in the
# mass matrix, which gives the shape [1/2, -1, 0]
REPEATED_MODE_SCENARIO = {
    "kind": "custom",
    "mass": {"rows": 3, "cols": 3, "entries": ["2", "1", "0", "1", "2", "0", "0", "0", "1"]},
    "stiffness": {"rows": 3, "cols": 3, "entries": ["4", "2", "0", "2", "4", "0", "0", "0", "3"]},
    "initial": {"positions": ["1", "0", "-1/2"], "velocities": ["0", "1/3", "1"]},
}
REPEATED_MODE_SOLVE_MODAL = (
    '{\n'
    '  "drift_modes": [],\n'
    '  "modes": [\n'
    '    {\n'
    '      "amplitude": 1.0069204977995476,\n'
    '      "omega": 1.4142135623730951,\n'
    '      "phase": 1.4534863015803035,\n'
    '      "shape": [\n'
    '        "1/1",\n'
    '        "0/1",\n'
    '        "0/1"\n'
    '      ],\n'
    '      "squared_frequency": "2/1"\n'
    '    },\n'
    '    {\n'
    '      "amplitude": 0.2357022603955158,\n'
    '      "omega": 1.4142135623730951,\n'
    '      "phase": 3.141592653589793,\n'
    '      "shape": [\n'
    '        "1/2",\n'
    '        "-1/1",\n'
    '        "0/1"\n'
    '      ],\n'
    '      "squared_frequency": "2/1"\n'
    '    },\n'
    '    {\n'
    '      "amplitude": 0.7637626158259734,\n'
    '      "omega": 1.7320508075688772,\n'
    '      "phase": 5.569460928234821,\n'
    '      "shape": [\n'
    '        "0/1",\n'
    '        "0/1",\n'
    '        "1/1"\n'
    '      ],\n'
    '      "squared_frequency": "3/1"\n'
    '    }\n'
    '  ],\n'
    '  "path": "exact",\n'
    '  "provenance": {\n'
    '    "algorithm": "modal-superposition",\n'
    '    "source": "lagrange-1788"\n'
    '  }\n'
    '}\n'
)


@pytest.fixture
def note23_file(tmp_path):
    path = tmp_path / "note23.json"
    path.write_text(json.dumps(NOTE23_DOC))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_to_file(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(args + ["--output", str(out)])
    return code, out.read_text() if out.exists() else None


class TestRoundTrip:
    def test_fraction_literals(self):
        for text in ("-3/7", "5/1", "0/1", "12/35"):
            assert format_fraction(parse_fraction(text)) == text

    def test_matrix_documents(self):
        M = RatMatrix.from_rows([["1/3", "-2/7"], ["5/1", "0/1"]])
        doc = matrix_to_doc(M)
        again = matrix_from_doc(json.loads(dump_document(doc)))
        assert again == M

    def test_cli_matrix_output_reparses(self, tmp_path, note23_file):
        code, text = run_to_file(
            ["weierstrass-reduce", "--input", write_json(
                tmp_path,
                "pair.json",
                {
                    "phi": {"rows": 2, "cols": 2,
                            "entries": ["2/1", "1/1", "1/1", "2/1"]},
                    "psi": {"rows": 2, "cols": 2,
                            "entries": ["1/1", "0/1", "0/1", "1/1"]},
                },
            )],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(text)
        thetas = [matrix_from_doc(c["theta"]) for c in doc["components"]]
        total = thetas[0] + thetas[1]
        assert total == RatMatrix.from_rows([[2, 1], [1, 2]])


class TestVerbs:
    def test_charpoly_note23(self, tmp_path, note23_file):
        code, text = run_to_file(["charpoly", "--input", note23_file], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["charpoly"]["coefficients"] == ["0/1", "-3/1", "4/1", "-1/1"]
        assert doc["charpoly"]["display"] == "-x^3+4*x^2-3*x"
        assert doc["path"] == "exact"
        assert doc["provenance"]["algorithm"]

    def test_roots_and_eigvec(self, tmp_path, note23_file):
        code, text = run_to_file(["roots", "--input", note23_file], tmp_path)
        assert code == 0
        roots = json.loads(text)["roots"]
        assert [r["value"] for r in roots] == ["0/1", "1/1", "3/1"]
        code, text = run_to_file(
            ["eigvec", "--input", note23_file, "--root", "1"], tmp_path
        )
        assert code == 0
        assert json.loads(text)["vectors"] == [["1/1", "0/1", "1/1"]]

    def test_invariant_factors_and_divisors(self, tmp_path, note23_file):
        code, text = run_to_file(
            ["invariant-factors", "--input", note23_file], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert [f["display"] for f in doc["invariant_factors"]] == [
            "1",
            "1",
            "x^3-4*x^2+3*x",
        ]
        code, text = run_to_file(
            ["elementary-divisors", "--input", note23_file], tmp_path
        )
        assert code == 0
        divisors = json.loads(text)["elementary_divisors"]
        assert {d["irreducible"]["display"] for d in divisors} == {"x", "x-1", "x-3"}

    def test_diagonalizable_inertia_darboux(self, tmp_path, note23_file):
        code, text = run_to_file(
            ["diagonalizable", "--input", note23_file], tmp_path
        )
        assert code == 0 and json.loads(text)["diagonalizable"] is True
        code, text = run_to_file(["inertia", "--input", note23_file], tmp_path)
        doc = json.loads(text)
        assert (doc["positives"], doc["negatives"], doc["zeros"]) == (2, 0, 1)
        code, text = run_to_file(["darboux-steps", "--input", note23_file], tmp_path)
        steps = json.loads(text)["steps"]
        assert [(s["root"]["value"], s["jump"]) for s in steps] == [
            ("0/1", -1),
            ("1/1", -1),
            ("3/1", -1),
        ]

    def test_weierstrass_identity_pair(self, tmp_path):
        pair = write_json(
            tmp_path,
            "pair.json",
            {
                "phi": {"rows": 2, "cols": 2, "entries": ["1/1", "0/1", "0/1", "1/1"]},
                "psi": {"rows": 2, "cols": 2, "entries": ["1/1", "0/1", "0/1", "1/1"]},
            },
        )
        code, text = run_to_file(["weierstrass-reduce", "--input", pair], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert len(doc["components"]) == 1
        assert doc["verified"] is True
        assert doc["provenance"]["source"] == "weierstrass-1858"

    def test_weierstrass_empty_pair_float_path(self, tmp_path, capsys):
        empty = {"rows": 0, "cols": 0, "entries": []}
        pair = write_json(tmp_path, "pair.json", {"phi": empty, "psi": empty})
        assert run(["weierstrass-reduce", "--input", pair, "--path", "float"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["path"] == "float"
        assert doc["components"] == []
        assert doc["verified"] is True

    def test_weierstrass_pencil_document_keeps_orientation(self, tmp_path, capsys):
        # an "A-sB" document is the pair (Phi, Psi) = (B, A), whose pencil
        # s*B - A has the document's roots: 1/2 (double), then 3
        path = write_json(tmp_path, "p.json", REPEATED_ROOT_PENCIL_DOC)
        assert run(["roots", "--input", path]) == 0
        roots = [(r["value"], r["multiplicity"])
                 for r in json.loads(capsys.readouterr().out)["roots"]]
        assert roots == [("1/2", 2), ("3/1", 1)]
        assert run(["weierstrass-reduce", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(c["root"]["value"], c["multiplicity"]) for c in doc["components"]] == roots
        assert doc["verified"] is True

    def test_expm(self, tmp_path):
        mat = write_json(
            tmp_path,
            "diag.json",
            {"rows": 2, "cols": 2, "entries": ["1/1", "0/1", "0/1", "2/1"]},
        )
        code, text = run_to_file(["expm", "--input", mat, "--time", "1.0"], tmp_path)
        assert code == 0
        E = json.loads(text)["exponential"]
        assert E[0][0] == pytest.approx(math.e, rel=1e-12)
        assert E[1][1] == pytest.approx(math.e**2, rel=1e-12)

    def test_classify_negative_definite_mass(self, tmp_path):
        # -I y'' + [[-2, 1], [1, -2]] y = 0: the negated equation is definite,
        # and the Jordan solver finds sigma = +-i and +-i sqrt 3
        scen = write_json(tmp_path, "negmass.json", {
            "kind": "custom",
            "mass": {"rows": 2, "cols": 2, "entries": ["-1", "0", "0", "-1"]},
            "stiffness": {"rows": 2, "cols": 2, "entries": ["-2", "1", "1", "-2"]},
            "initial": {"positions": ["1", "0"], "velocities": ["0", "1"]},
        })
        code, text = run_to_file(["classify", "--input", scen], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["corrected"]["verdict"] == doc["historical"]["verdict"] == "stable"
        assert doc["agreement"] is True
        assert "applies to the negated equation" in doc["corrected"]["rule"]
        code, text = run_to_file(["solve", "--method", "jordan", "--input", scen], tmp_path)
        assert code == 0
        blocks = json.loads(text)["blocks"]
        assert [b["sigma_im"] for b in blocks] == pytest.approx([1, math.sqrt(3)])
        assert [b["sigma_re"] for b in blocks] == pytest.approx([0, 0], abs=1e-12)

    def test_modal_solve_and_trajectory_negative_definite_mass(self, tmp_path):
        # -I y'' + [[-2, 1], [1, -2]] y = 0 prints what the negated equation
        # I y'' + [[2, -1], [-1, 2]] y = 0 prints
        initial = {"positions": ["1", "0"], "velocities": ["0", "1"]}
        negated = write_json(tmp_path, "negmass.json", {
            "kind": "custom",
            "mass": {"rows": 2, "cols": 2, "entries": ["-1", "0", "0", "-1"]},
            "stiffness": {"rows": 2, "cols": 2, "entries": ["-2", "1", "1", "-2"]},
            "initial": initial,
        })
        positive = write_json(tmp_path, "posmass.json", {
            "kind": "custom",
            "mass": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]},
            "stiffness": {"rows": 2, "cols": 2, "entries": ["2", "-1", "-1", "2"]},
            "initial": initial,
        })
        for verb in (["solve", "--method", "modal"], ["trajectory"]):
            code, text = run_to_file(verb + ["--input", negated], tmp_path, "neg.out")
            assert code == 0
            assert (code, text) == run_to_file(verb + ["--input", positive], tmp_path)
        modes = json.loads(run_to_file(["solve", "--input", negated], tmp_path)[1])["modes"]
        assert [m["squared_frequency"] for m in modes] == ["1/1", "3/1"]

    def test_classify_and_solve_and_trajectory(self, tmp_path):
        scen = write_json(
            tmp_path,
            "yvon.json",
            {
                "kind": "yvon-villarceau-2dof",
                "parameters": {"g": "1", "f": "1", "a": "0", "c": "1"},
                "initial": {
                    "positions": ["1/10", "0/1"],
                    "velocities": ["0/1", "0/1"],
                },
                "t_grid": {"t_max": 6.283, "steps": 100},
            },
        )
        code, text = run_to_file(["classify", "--input", scen], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["historical"]["verdict"] == "conditional"
        assert doc["corrected"]["verdict"] == "stable"
        assert doc["agreement"] is False

        code, text = run_to_file(["solve", "--input", scen], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["path"] == "exact"
        assert len(doc["modes"]) == 2

        code, text = run_to_file(
            ["solve", "--input", scen, "--method", "jordan"], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["provenance"]["source"] == "jordan-1871"
        assert all(b["chain_length"] >= 1 for b in doc["blocks"])

        code, text = run_to_file(
            ["trajectory", "--input", scen], tmp_path, "traj.csv"
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "t,y1,y2"
        assert len(lines) == 102


class TestWidthFlag:
    def test_roots_width_override(self, tmp_path):
        doc = write_json(
            tmp_path,
            "m.json",
            {"rows": 2, "cols": 2, "entries": ["0/1", "2/1", "1/1", "0/1"]},
        )
        code, text = run_to_file(
            ["roots", "--input", doc, "--width", "1/1000"], tmp_path
        )
        assert code == 0
        roots = json.loads(text)["roots"]
        assert all(r["kind"] == "isolated" for r in roots)
        for r in roots:
            lo = parse_fraction(r["interval"][0])
            hi = parse_fraction(r["interval"][1])
            assert hi - lo < parse_fraction("1/1000")
        approxs = sorted(r["approx"] for r in roots)
        assert approxs[0] == pytest.approx(-math.sqrt(2), abs=1e-3)
        assert approxs[1] == pytest.approx(math.sqrt(2), abs=1e-3)

    # "1e-99999999" would build 10**99999999 in Fraction
    @pytest.mark.parametrize("width", ["0", "-1", "abc", "1/0", "1_0", "\u0663", "1e-99999999"])
    def test_invalid_width_exits_2(self, tmp_path, width, capsys, one_second):
        doc = write_json(
            tmp_path,
            "m.json",
            {"rows": 2, "cols": 2, "entries": ["0/1", "2/1", "1/1", "0/1"]},
        )
        with pytest.raises(SystemExit) as exc:
            run(["roots", "--input", doc, "--width", width])
        assert exc.value.code == 2
        assert "--width" in capsys.readouterr().err


class TestLargeCoefficients:
    def test_exact_roots_of_1e12_entries(self, tmp_path, deadline, capsys):
        # rational roots are found without enumerating divisors of 10^24
        deadline(1.0)
        doc = write_json(
            tmp_path,
            "m.json",
            {"rows": 2, "cols": 2, "entries": ["0", "1e12", "1e12", "0"]},
        )
        assert run(["roots", "--input", doc]) == 0
        roots = json.loads(capsys.readouterr().out)["roots"]
        assert [(r["kind"], r["value"]) for r in roots] == [
            ("exact", "-1000000000000/1"),
            ("exact", "1000000000000/1"),
        ]

    def test_elementary_divisors_of_1e12_entries(self, tmp_path, deadline, capsys):
        # the linear factors come from the exact roots, not from a search
        # through the divisors of 10^24
        deadline(1.0)
        doc = write_json(
            tmp_path,
            "m.json",
            {"rows": 2, "cols": 2, "entries": ["0", "1e12", "1e12", "0"]},
        )
        assert run(["elementary-divisors", "--input", doc]) == 0
        divisors = json.loads(capsys.readouterr().out)["elementary_divisors"]
        assert [(d["irreducible"]["display"], d["exponent"]) for d in divisors] == [
            ("x-1000000000000", 1),
            ("x+1000000000000", 1),
        ]


# Imports the package and the CLI in a fresh interpreter, runs the verb given
# on the command line (if any), and reports its exit code and whether numpy
# was imported on the last line of stderr.
NUMPY_PROBE = (
    "import sys\n"
    "import secular, secular.cli\n"
    "code = secular.cli.run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
)
SCENARIO_DOC = {
    "kind": "coupled-springs",
    "parameters": {"m": "1", "k": "2", "k0": "1"},
    "initial": {"positions": ["1", "0"], "velocities": ["0", "1"]},
}


LOADED_STRING_DOC = {
    "kind": "loaded-string",
    "parameters": {"n": "4", "a": "3/2"},
    "initial": {"positions": ["1", "0", "-1/2", "0"], "velocities": ["0", "1", "0", "0"]},
}
DALEMBERT_DOC = {
    "kind": "dalembert-two-mass",
    "parameters": {"T": "2"},
    "initial": {"positions": ["1", "0"], "velocities": ["0", "1"]},
}
DENSE_SCENARIO_DOC = {
    "kind": "custom",
    "mass": {"rows": 2, "cols": 2, "entries": ["2", "1", "1", "3"]},
    "stiffness": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "3"]},
    "initial": {"positions": ["1", "0"], "velocities": ["0", "1"]},
}


def run_probe(script, argv):
    """The last stderr line of a fresh interpreter running script with argv,
    on this checkout's `secular`."""
    src = os.path.dirname(os.path.dirname(secular.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


class TestNumpyFreeStartUp:
    """numpy loads only where a float path runs: the exact verbs start and
    finish without it."""

    @staticmethod
    def probe(argv):
        code, loaded = run_probe(NUMPY_PROBE, argv).split()
        return int(code), loaded == "True"

    @pytest.mark.parametrize(
        "verb, doc",
        [
            (None, None),
            ("charpoly", NOTE23_DOC),
            ("roots", TRIDIAGONAL_DOC),
            ("inertia", NOTE23_DOC),
            ("elementary-divisors", TRIDIAGONAL_DOC),
            ("classify", SCENARIO_DOC),
            ("solve", SCENARIO_DOC),
        ],
    )
    def test_exact_verbs_import_no_numpy(self, tmp_path, verb, doc):
        argv = [] if verb is None else [verb, "--input", write_json(tmp_path, "d.json", doc)]
        assert self.probe(argv) == (0, False)

    def test_expm_imports_no_numpy(self, tmp_path):
        # rational eigenvalues: the principal parts are summed in Python floats
        doc = write_json(
            tmp_path,
            "diag.json",
            {"rows": 2, "cols": 2, "entries": ["1/1", "0/1", "0/1", "2/1"]},
        )
        assert self.probe(["expm", "--input", doc, "--time", "1.0"]) == (0, False)

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("solve --method modal", LOADED_STRING_DOC),
            ("solve", DALEMBERT_DOC),
            ("eigvec", {"rows": 2, "cols": 2, "entries": ["1", "2", "2", "-3"]}),
        ],
        ids=["loaded-string", "dalembert", "eigvec-2x2"],
    )
    def test_jacobi_float_paths_import_no_numpy(self, tmp_path, capsys, command, doc):
        # irrational roots: the float path, with null vectors from the minors
        path = write_json(tmp_path, "d.json", doc)
        argv = [*command.split(), "--input", path]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["path"] == "float"
        assert self.probe(argv) == (0, False)

    @pytest.mark.parametrize("verb", ["solve", "trajectory"])
    def test_dense_solve_and_trajectory_still_import_numpy(self, tmp_path, verb):
        # a full mass matrix takes the SVD, and every trajectory the array
        # grid: a silent fallback to either elsewhere would show here
        doc = DENSE_SCENARIO_DOC if verb == "solve" else LOADED_STRING_DOC
        path = write_json(tmp_path, "d.json", doc)
        assert self.probe([verb, "--input", path]) == (0, True)


MODULES_PROBE = (
    "import json, sys\n"
    "import secular\n"
    "code = 0\n"
    "if len(sys.argv) > 1:\n"
    "    from secular.cli import run\n"
    "    code = run(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('secular')),\n"
    "                  'dataclasses' in sys.modules, 'numpy' in sys.modules]), file=sys.stderr)\n"
)
# what every verb loads: the front end, the parser and the matrix layer
CLI_MODULES = {"secular", "secular._record", "secular.cli", "secular.errors", "secular.io",
               "secular.matrices", "secular.polynomials", "secular.realroots"}
SPECTRAL = {"secular.invariants", "secular.spectral"}
OSCILLATE = SPECTRAL | {"secular.oscillate"}


class TestLazyStartUp:
    """A verb loads the engine modules it runs and no others, and no verb
    loads `dataclasses`."""

    @staticmethod
    def probe(argv):
        return json.loads(run_probe(MODULES_PROBE, argv))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def numpy_loads_dataclasses():
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, numpy; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
        )
        return proc.stdout.strip() == "True"

    def test_import_alone_loads_no_engine_module(self):
        assert self.probe([]) == [0, ["secular"], False, False]

    @pytest.mark.parametrize(
        "command, doc, engine",
        [
            ("charpoly", NOTE23_DOC, set()),
            ("roots", TRIDIAGONAL_DOC, SPECTRAL),
            ("eigvec", TRIDIAGONAL_DOC, SPECTRAL),
            ("invariant-factors", JORDAN_BLOCK_DOC, {"secular.invariants"}),
            ("elementary-divisors", JORDAN_BLOCK_DOC, {"secular.invariants"}),
            ("diagonalizable", JORDAN_BLOCK_DOC, {"secular.invariants"}),
            ("inertia", NOTE23_DOC, {"secular.invariants"}),
            ("darboux-steps", NOTE23_DOC, {"secular.invariants"}),
            ("weierstrass-reduce", REPEATED_PAIR_DOC, SPECTRAL | {"secular.quadpairs"}),
            ("expm", JORDAN_BLOCK_DOC, OSCILLATE),
            ("solve --method modal", SCENARIO_DOC, OSCILLATE),
            ("solve --method jordan", SCENARIO_DOC, OSCILLATE),
            ("classify", SCENARIO_DOC, OSCILLATE),
            ("trajectory", SCENARIO_DOC, OSCILLATE),
        ],
    )
    def test_verb_loads_only_its_modules(self, tmp_path, command, doc, engine):
        path = write_json(tmp_path, "d.json", doc)
        code, modules, dataclasses, numpy = self.probe([*command.split(), "--input", path])
        assert code == 0
        assert set(modules) == CLI_MODULES | engine
        # numpy loads where a float path runs: dataclasses may load only
        # with it, and only if numpy itself loads it
        assert not dataclasses or (numpy and self.numpy_loads_dataclasses())


class TestFlags:
    @pytest.mark.parametrize("root", ["abc", "1/0", "1_0", "\u0663"])
    def test_invalid_root_exits_2(self, note23_file, root, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["eigvec", "--input", note23_file, "--root", root])
        assert exc.value.code == 2
        assert "--root" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, flag, value",
        [("weierstrass-reduce", "--tolerance", "nan"),
         ("weierstrass-reduce", "--tolerance", "inf"),
         ("weierstrass-reduce", "--tolerance", "-1"),
         ("weierstrass-reduce", "--tolerance", "abc"),
         ("expm", "--time", "nan"),
         ("expm", "--time", "inf"),
         ("expm", "--time", "abc")],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, verb, flag, value):
        # a NaN or infinite tolerance would make "verified" claim nothing
        # true, and a NaN time is an invalid input rather than an overflow
        doc = REPEATED_PAIR_DOC if verb == "weierstrass-reduce" else JORDAN_BLOCK_DOC
        path = write_json(tmp_path, "in.json", doc)
        with pytest.raises(SystemExit) as exc:
            run([verb, "--input", path, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, doc, flag, value, code",
        [("eigvec", NEGATIVE_ROOT_DOC, "--root", "-1/2", 0),
         ("eigvec", NEGATIVE_ROOT_DOC, "--root", "-0.5", 0),
         ("roots", TRIDIAGONAL_DOC, "--width", "-1/2", 2),
         ("expm", JORDAN_BLOCK_DOC, "--time", "-1e0", 0),
         ("expm", JORDAN_BLOCK_DOC, "--time", "-.5", 0),
         ("weierstrass-reduce", REPEATED_PAIR_DOC, "--tolerance", "-1e-3", 2),
         ("weierstrass-reduce", REPEATED_PAIR_DOC, "--tolerance", "-0e0", 0),
         ("trajectory", SCENARIO_DOC, "--t-max", "-1e0", 3),
         ("trajectory", SCENARIO_DOC, "--t-max", "-1/2", 2)],
    )
    def test_negative_value_reads_as_after_equals(self, tmp_path, capsys, verb, doc, flag,
                                                  value, code):
        # argparse takes "-1/2" or "-1e0" for an option unless told otherwise
        def outcome(argv):
            try:
                status = run(argv)
            except SystemExit as exc:
                status = exc.code
            return status, capsys.readouterr().out

        path = write_json(tmp_path, "in.json", doc)
        spaced = outcome([verb, "--input", path, flag, value])
        assert spaced == outcome([verb, "--input", path, f"{flag}={value}"])
        assert spaced[0] == code

    @pytest.mark.parametrize(
        "verb, flag",
        [("charpoly", ["--path", "float"]), ("inertia", ["--width", "1/10"]),
         ("roots", ["--tolerance", "1e-6"]), ("expm", ["--path", "exact"])],
    )
    def test_flag_only_on_verbs_that_read_it(self, note23_file, verb, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run([verb, "--input", note23_file] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "flags, expected",
        [([], TRIDIAGONAL_ROOTS),
         (["--width", "1/1000"], TRIDIAGONAL_ROOTS_WIDTH_1000)],
    )
    def test_roots_stdout_pinned(self, tmp_path, capsys, flags, expected):
        doc = write_json(tmp_path, "m.json", TRIDIAGONAL_DOC)
        assert run(["roots", "--input", doc] + flags) == 0
        assert capsys.readouterr().out == expected

    def test_expm_stdout_pinned(self, tmp_path, capsys):
        doc = write_json(tmp_path, "m.json", DEFECTIVE_DOC)
        assert run(["expm", "--input", doc, "--time", "1"]) == 0
        assert capsys.readouterr().out == DEFECTIVE_EXPM_T1

    def test_solve_jordan_stdout_pinned(self, tmp_path, capsys):
        doc = write_json(tmp_path, "s.json", DRIFT_SCENARIO)
        assert run(["solve", "--method", "jordan", "--input", doc]) == 0
        assert capsys.readouterr().out == DRIFT_SOLVE_JORDAN

    @pytest.mark.parametrize(
        "verb, doc, expected",
        [("diagonalizable", NOTE23_DOC, NOTE23_DIAGONALIZABLE),
         ("diagonalizable", JORDAN_BLOCK_DOC, JORDAN_BLOCK_DIAGONALIZABLE),
         ("diagonalizable", IDENTITY_DOC, IDENTITY_DIAGONALIZABLE),
         ("weierstrass-reduce", REPEATED_PAIR_DOC, REPEATED_PAIR_REDUCE),
         ("weierstrass-reduce", NEGATIVE_PAIR_DOC, NEGATIVE_PAIR_REDUCE)],
        ids=["note23", "jordan-block", "identity", "repeated-root", "negative-definite"],
    )
    def test_divisibility_verbs_stdout_pinned(self, tmp_path, capsys, verb, doc, expected):
        path = write_json(tmp_path, "in.json", doc)
        assert run([verb, "--input", path]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "doc, expected",
        [(SWAP_2X2_DOC, SWAP_2X2_INERTIA),
         (NOTE23_DOC, NOTE23_INERTIA),
         (ZERO_FIRST_PIVOT_DOC, ZERO_FIRST_PIVOT_INERTIA)],
        ids=["add-step", "zero-row", "zero-first-pivot"],
    )
    def test_inertia_fallback_stdout_pinned(self, tmp_path, capsys, doc, expected):
        path = write_json(tmp_path, "m.json", doc)
        assert run(["inertia", "--input", path]) == 0
        assert capsys.readouterr().out == expected

    def test_negative_definite_float_stdout_pinned(self, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", NEGATIVE_FLOAT_PAIR_DOC)
        assert run(["weierstrass-reduce", "--input", path]) == 0
        assert capsys.readouterr().out == NEGATIVE_FLOAT_PAIR_REDUCE

    def test_darboux_steps_with_denominators_stdout_pinned(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", DENOMINATOR_SYMMETRIC_DOC)
        assert run(["darboux-steps", "--input", path]) == 0
        assert capsys.readouterr().out == DENOMINATOR_DARBOUX

    @pytest.mark.parametrize("verb, expected", [
        ("charpoly", NEGATIVE_CONTENT_CHARPOLY),
        ("invariant-factors", NEGATIVE_CONTENT_INVARIANT_FACTORS),
        ("elementary-divisors", NEGATIVE_CONTENT_ELEMENTARY_DIVISORS),
    ])
    def test_negative_rational_content_stdout_pinned(self, tmp_path, capsys, verb, expected):
        path = write_json(tmp_path, "m.json", NEGATIVE_CONTENT_DOC)
        assert run([verb, "--input", path]) == 0
        assert capsys.readouterr().out == expected

    def test_solve_modal_repeated_root_stdout_pinned(self, tmp_path, capsys):
        doc = write_json(tmp_path, "s.json", REPEATED_MODE_SCENARIO)
        assert run(["solve", "--method", "modal", "--input", doc]) == 0
        assert capsys.readouterr().out == REPEATED_MODE_SOLVE_MODAL

    def test_eigvec_nullspace_stdout_pinned(self, tmp_path, capsys):
        path = write_json(tmp_path, "p.json", REPEATED_ROOT_PENCIL_DOC)
        assert run(["eigvec", "--input", path, "--path", "exact", "--root-index", "1"]) == 0
        assert capsys.readouterr().out == REPEATED_ROOT_EIGVEC

    def test_byte_identical_repeats(self, tmp_path, note23_file):
        _, first = run_to_file(["roots", "--input", note23_file], tmp_path, "a.json")
        _, second = run_to_file(["roots", "--input", note23_file], tmp_path, "b.json")
        assert first == second

    def test_trajectory_determinism(self, tmp_path):
        scen = write_json(
            tmp_path,
            "springs.json",
            {
                "kind": "coupled-springs",
                "parameters": {"m": "1", "k": "1", "k0": "1"},
                "initial": {"positions": ["1/1", "0/1"],
                            "velocities": ["0/1", "0/1"]},
                "t_grid": {"t_max": 10, "steps": 100},
            },
        )
        _, a = run_to_file(["trajectory", "--input", scen], tmp_path, "a.csv")
        _, b = run_to_file(["trajectory", "--input", scen], tmp_path, "b.csv")
        assert a == b


EMPTY = {"rows": 0, "cols": 0, "entries": []}
EMPTY_SCENARIO = {"kind": "custom", "mass": EMPTY, "stiffness": EMPTY,
                  "initial": {"positions": [], "velocities": []}}


class TestEmptyInputs:
    """Every verb on the 0x0 matrix, pair or scenario exits with a pinned
    code and no traceback: 0, except `eigvec`, which has no root to pick."""

    @pytest.mark.parametrize("argv, code", [
        (["charpoly"], 0),
        (["roots"], 0),
        (["eigvec"], 3),
        (["eigvec", "--path", "float"], 3),
        (["invariant-factors"], 0),
        (["elementary-divisors"], 0),
        (["diagonalizable"], 0),
        (["inertia"], 0),
        (["darboux-steps"], 0),
        (["expm"], 0),
        (["weierstrass-reduce"], 0),
        (["weierstrass-reduce", "--path", "exact"], 0),
        (["weierstrass-reduce", "--path", "float"], 0),
        (["solve"], 0),
        (["solve", "--path", "float"], 0),
        (["solve", "--method", "jordan"], 0),
        (["solve", "--method", "jordan", "--path", "exact"], 0),
        (["solve", "--method", "jordan", "--path", "float"], 0),
        (["classify"], 0),
        (["trajectory"], 0),
        (["trajectory", "--path", "float"], 0),
    ])
    def test_exit_code(self, tmp_path, capsys, argv, code):
        docs = {"matrix": EMPTY, "pair": {"phi": EMPTY, "psi": EMPTY},
                "scenario": EMPTY_SCENARIO}
        kind = {"weierstrass-reduce": "pair", "solve": "scenario", "classify": "scenario",
                "trajectory": "scenario"}.get(argv[0], "matrix")
        doc = write_json(tmp_path, "empty.json", docs[kind])
        assert run([argv[0], "--input", doc, *argv[1:]]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else "precondition violated: root index 1 out of range\n")

    def test_jordan_float_path_has_no_blocks(self, tmp_path, capsys):
        # the 0x0 system matrix is a (0, 0) float array, whose eigen-
        # decomposition is empty
        doc = write_json(tmp_path, "empty.json", EMPTY_SCENARIO)
        assert run(["solve", "--method", "jordan", "--path", "float", "--input", doc]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["path"], out["blocks"]) == ("float", [])
        assert RatMatrix.zeros(0, 0).to_numpy().shape == (0, 0)


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run(["roots", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "entry", ["1_000", "1_0/3", "2/1_0", "1e1_0", "0.1_5", "\u0663", "\u0663/4",
                  "1/\u0663", "\uff13", "\u00a03", "3\u2003"])
    def test_separators_and_non_ascii_exit_2(self, tmp_path, capsys, entry):
        # Fraction reads "1_000" as 1000 and the Arabic-Indic "\u0663" as 3;
        # the document grammar takes ASCII alone, without separators
        with pytest.raises(ParseError, match="ASCII"):
            parse_fraction(entry)
        doc = write_json(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [entry]})
        assert run(["charpoly", "--input", doc]) == 2
        assert capsys.readouterr().err.startswith("parse error: bad rational literal")

    @pytest.mark.parametrize("text, value", [
        ("3", 3), ("-2/5", Fraction(-2, 5)), ("+4", 4), ("0.25", Fraction(1, 4)),
        ("1e-3", Fraction(1, 1000)), ("3E2", 300), (" 7/2\n", Fraction(7, 2)), (12, 12),
    ])
    def test_accepted_literals(self, text, value):
        assert parse_fraction(text) == value

    def test_malformed_matrix(self, tmp_path):
        doc = write_json(
            tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": ["1/1"]}
        )
        assert run(["charpoly", "--input", doc]) == 2

    def test_negative_dimensions(self, tmp_path):
        # rows * cols matches the single entry, but no matrix has -1 rows
        doc = write_json(
            tmp_path, "m.json", {"rows": -1, "cols": -1, "entries": ["2/1"]}
        )
        assert run(["inertia", "--input", doc]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            # json reads 1e400 as inf, which int() cannot convert
            '{"rows": 1e400, "cols": 2, "entries": ["1/1", "2/1"]}',
            # int() would truncate 2.5 to 2
            '{"rows": 2.5, "cols": 2, "entries": ["1/1", "2/1", "2/1", "1/1"]}',
            # int() reads true and the Arabic-Indic digit one as 1
            '{"rows": true, "cols": 1, "entries": ["1/1"]}',
            '{"rows": "\u0661", "cols": 1, "entries": ["1/1"]}',
        ],
    )
    def test_non_integral_dimensions(self, tmp_path, capsys, text):
        doc = tmp_path / "m.json"
        doc.write_text(text)
        assert run(["inertia", "--input", str(doc)]) == 2
        assert "must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        # a string is not an array of digits
        {"initial": {"positions": "10", "velocities": "00"}},
        {"t_grid": {"t_max": 10, "steps": 2.7}},
        {"t_grid": {"t_max": 10, "steps": True}},
        {"t_grid": {"t_max": "1_0", "steps": 10}},
        {"t_grid": {"t_max": True, "steps": 10}},
        {"t_grid": {"t_max": "inf", "steps": 10}},
        {"t_grid": {"t_max": "\u0663", "steps": 10}},
    ])
    def test_scenario_numbers_follow_the_flag_grammar(self, tmp_path, capsys, fields):
        # --t-steps 2.7, --t-max 1_0 and --t-max inf exit 2 as well
        doc = write_json(tmp_path, "s.json", {
            "kind": "coupled-springs", "parameters": {"m": "1", "k": "1", "k0": "1"},
            "initial": {"positions": ["1", "0"], "velocities": ["0", "0"]}, **fields})
        for verb in ("trajectory", "solve"):
            assert run([verb, "--input", doc]) == 2
            assert capsys.readouterr().err.startswith("parse error:")

    def test_exponent_beyond_digit_limit(self, tmp_path, deadline, capsys):
        # 1e999999999 would build a billion-digit integer; 1e5000 goes past
        # the same digit limit and still finishes quickly without the check
        deadline(1.0)
        doc = write_json(
            tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": ["1e5000"]}
        )
        assert run(["inertia", "--input", doc]) == 2
        assert "exponent expands beyond" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, entries, flags",
        [
            # math.exp(1e12 * 0.5) in the matrix exponential
            ("expm", ["0", "1e12", "1e12", "0"], ["--time", "0.5"]),
            # roots near 1e400 have no float approximation
            ("roots", ["2", "1e400", "1e400", "3"], []),
            ("eigvec", ["2", "1e400", "1e400", "3"], []),
            ("darboux-steps", ["2", "1e400", "1e400", "3"], []),
            # exp(709) is finite, times a projector entry of about 14 it is not
            ("expm", ["709", "10000", "0", "0"], ["--time", "1"]),
            # a whole scenario: the modal amplitudes overflow, so every
            # trajectory sample would read inf
            ("trajectory", {
                "kind": "coupled-springs",
                "parameters": {"m": "1", "k": "1", "k0": "1"},
                "initial": {"positions": ["1.7e308", "1.7e308"],
                            "velocities": ["1.7e308", "1.7e308"]},
                "t_grid": {"t_max": 1.0, "steps": 3},
            }, []),
            # t_max * k overflows on the grid, so math.sin would see inf
            ("trajectory", {
                "kind": "coupled-springs",
                "parameters": {"m": "1", "k": "1", "k0": "1"},
                "initial": {"positions": ["1", "0"], "velocities": ["0", "0"]},
                "t_grid": {"t_max": 1e308, "steps": 200},
            }, []),
            ("trajectory", {
                "kind": "coupled-springs",
                "parameters": {"m": "1", "k": "1", "k0": "1"},
                "initial": {"positions": ["1", "0"], "velocities": ["0", "0"]},
            }, ["--t-max", "1e308"]),
            # a mass of 1e-400 rounds to 0.0: a mode's weight norm is no
            # positive float, where a numpy division warned and gave inf
            ("solve", {
                "kind": "custom",
                "mass": {"rows": 2, "cols": 2, "entries": ["1e-400", "0", "0", "2e-400"]},
                "stiffness": {"rows": 2, "cols": 2, "entries": ["2", "-1", "-1", "1"]},
                "initial": {"positions": ["1", "0"], "velocities": ["0", "1"]},
            }, []),
        ],
    )
    def test_float_overflow_exits_3(self, tmp_path, deadline, capsys, verb, entries, flags):
        deadline(2.0)
        if not isinstance(entries, dict):
            entries = {"rows": 2, "cols": 2, "entries": entries}
        doc = write_json(tmp_path, "m.json", entries)
        with warnings.catch_warnings(record=True) as caught:
            # a warning that escapes would print on stderr outside pytest
            warnings.simplefilter("always")
            assert run([verb, "--input", doc] + flags) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "precondition violated" in captured.err
        assert "beyond floating-point range" in captured.err
        assert "RuntimeWarning" not in captured.err

    @pytest.mark.parametrize("verb, flag, value", [
        # float and int read "_" separators and non-ASCII digits, which the
        # number flags refuse as rationals are refused; a NaN or infinite
        # t-max never reaches the grid
        ("expm", "--time", "\u0663"), ("expm", "--time", "1_0"),
        ("weierstrass-reduce", "--tolerance", "1e-9_0"),
        ("weierstrass-reduce", "--tolerance", "\uff11e-9"),
        ("trajectory", "--t-max", "\u0663"), ("trajectory", "--t-max", "1_0"),
        ("trajectory", "--t-max", "inf"), ("trajectory", "--t-max", "nan"),
        ("trajectory", "--t-steps", "1_0"), ("trajectory", "--t-steps", "\u0663"),
        ("trajectory", "--t-steps", "2.0"),
        ("eigvec", "--root-index", "\u0661"), ("eigvec", "--root-index", "0_1"),
    ])
    def test_number_flags_exit_2(self, tmp_path, capsys, verb, flag, value):
        doc = {"expm": JORDAN_BLOCK_DOC, "eigvec": JORDAN_BLOCK_DOC,
               "weierstrass-reduce": REPEATED_PAIR_DOC}.get(verb, {
                   "kind": "coupled-springs",
                   "parameters": {"m": "1", "k": "1", "k0": "1"},
                   "initial": {"positions": ["1", "0"], "velocities": ["0", "0"]}})
        path = write_json(tmp_path, "in.json", doc)
        with pytest.raises(SystemExit) as exc:
            run([verb, "--input", path, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

    def test_nan_grid_is_a_precondition(self):
        # the library guards the grid the flags no longer let NaN reach
        from secular.errors import PreconditionError
        from secular.oscillate import time_grid

        with pytest.raises(PreconditionError, match="grid needs t_max >= 0"):
            time_grid(math.nan, 3)

    def test_number_flags_read_ascii_numbers(self, tmp_path, capsys):
        doc = write_json(tmp_path, "s.json", {
            "kind": "coupled-springs",
            "parameters": {"m": "1", "k": "1", "k0": "1"},
            "initial": {"positions": ["1", "0"], "velocities": ["0", "0"]}})
        assert run(["trajectory", "--input", doc, "--t-max", " 1e1 ", "--t-steps", "+4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6  # header and 5 times

    def test_fractional_string_masses_exits_3(self, tmp_path, capsys):
        # int() would truncate 5/2 to 2 masses
        doc = write_json(tmp_path, "s.json", {
            "kind": "loaded-string",
            "parameters": {"n": "5/2"},
            "initial": {"positions": ["1", "0"], "velocities": ["0", "0"]},
        })
        assert run(["classify", "--input", doc]) == 3
        assert "whole number of masses" in capsys.readouterr().err

    def test_singular_frequency_pencil(self, tmp_path, capsys):
        zero = {"rows": 1, "cols": 1, "entries": ["0/1"]}
        doc = write_json(
            tmp_path, "s.json", {"kind": "custom", "mass": zero, "stiffness": zero}
        )
        assert run(["classify", "--input", doc]) == 3
        assert "singular pencil (determinant identically zero)" in capsys.readouterr().err

    def test_precondition_singular_pencil(self, tmp_path):
        doc = write_json(
            tmp_path,
            "z.json",
            {
                "A": {"rows": 1, "cols": 1, "entries": ["0/1"]},
                "B": {"rows": 1, "cols": 1, "entries": ["0/1"]},
                "orientation": "sA-B",
            },
        )
        assert run(["roots", "--input", doc]) == 3

    def test_precondition_indefinite_pair(self, tmp_path):
        doc = write_json(
            tmp_path,
            "pair.json",
            {
                "phi": {"rows": 2, "cols": 2,
                        "entries": ["1/1", "0/1", "0/1", "-1/1"]},
                "psi": {"rows": 2, "cols": 2,
                        "entries": ["1/1", "0/1", "0/1", "1/1"]},
            },
        )
        assert run(["weierstrass-reduce", "--input", doc]) == 3

    def test_precondition_indefinite_leading_pencil_document(self, tmp_path):
        # A - sB with A = I and B = diag(1, -1): the pair is (B, A), indefinite
        identity = {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}
        doc = write_json(tmp_path, "p.json", {
            "A": identity,
            "B": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "-1"]},
            "orientation": "A-sB",
        })
        assert run(["weierstrass-reduce", "--input", doc]) == 3

    def test_path_unavailable(self, tmp_path):
        doc = write_json(
            tmp_path,
            "m.json",
            {"rows": 2, "cols": 2, "entries": ["0/1", "1/1", "1/1", "1/1"]},
        )
        assert (
            run(
                [
                    "eigvec",
                    "--input", doc,
                    "--root-index", "1",
                    "--path", "exact",
                ]
            )
            == 4
        )

    def test_jordan_exact_path_unavailable(self, tmp_path, capsys):
        # y'' + 2y = 0: eigenvalues +-i*sqrt(2) of the first-order system; the
        # Jordan solver states the path rule of every other entry point
        doc = write_json(tmp_path, "s.json", {
            "kind": "custom",
            "mass": {"rows": 1, "cols": 1, "entries": ["1"]},
            "stiffness": {"rows": 1, "cols": 1, "entries": ["2"]},
            "initial": {"positions": ["1"], "velocities": ["0"]}})
        assert run(["solve", "--method", "jordan", "--path", "exact", "--input", doc]) == 4
        assert capsys.readouterr().err == (
            "path unavailable: exact path requested but a characteristic root is"
            " irrational; use the floating path\n")
