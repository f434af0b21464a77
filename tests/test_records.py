"""The record form of every result type: the repr, equality, hashing,
immutability, defaults and `replace` that the frozen dataclasses gave, and the
names the package exports."""

import copy
import pickle
from fractions import Fraction

import pytest

import secular
from secular._record import FrozenRecordError, Record, replace
from secular.errors import PreconditionError
from secular.invariants import inertia
from secular.matrices import Pencil, RatMatrix
from secular.oscillate import JordanBlock, Mode
from secular.polynomials import Poly
from secular.realroots import RealRoot
from secular.spectral import QFactor

M = RatMatrix.from_rows([[2, 1], [1, 2]])
ROOT = RealRoot.exact(4, Poly([-4, 1]))
MODE_ARGS = (ROOT, 2.0, (Fraction(1), Fraction(-1, 2)), Fraction(5, 4), 0.5, 0.25)

# the reprs a @dataclass(frozen=True) with the same fields prints, byte for
# byte; a RatMatrix shows its integer form (den, nums)
DATACLASS_REPRS = [
    (lambda: Pencil.similarity(M),
     "Pencil(A=RatMatrix(rows=2, cols=2, den=1, nums=(1, 0, 0, 1)),"
     " B=RatMatrix(rows=2, cols=2, den=1, nums=(2, 1, 1, 2)), orientation='sA-B')"),
    (lambda: inertia(M),
     "InertiaReport(positives=2, negatives=0, zeros=0, method='minor-formula')"),
    (lambda: RealRoot.exact(Fraction(1, 2), Poly([-1, 2])), "RealRoot(1/2, mult=1)"),
    (lambda: RealRoot.isolated(1, 2, Poly([-2, 0, 1]), 2), "RealRoot((1, 2), mult=2)"),
    (lambda: Mode(*MODE_ARGS),
     "Mode(k_root=RealRoot(4, mult=1), omega=2.0, shape=(Fraction(1, 1),"
     " Fraction(-1, 2)), sq_norm=Fraction(5, 4), amplitude=0.5, phase=0.25)"),
]

# the 59 names `secular` exported when its __init__ imported every module
EXPORTS = sorted("""
EngineError InternalError ParseError PathUnavailableError PreconditionError
Poly kronecker_factor poly_gcd squarefree_decompose
RealRoot refine_root root_sign sturm_isolate
Pencil PolyMatrix RatMatrix adjugate_pencil det_pencil det_rational
ElementaryDivisors InertiaReport InvariantFactors MinorGcdChain
darboux_signature_steps elementary_divisors inertia invariant_factors
is_diagonalizable minor_gcd_chain
QFactor SpectralDecomposition adjugate_eigenvector cauchy_orthogonality char_roots
nullspace_at_root q_factor spectral_decompose
QuadraticPair ThetaDecomposition remarkable_circumstance_check theta_components
verify_theorem
InitialConditions JordanSolution MechModel ModalSolution ScalarSolution
StabilityVerdict Trajectory build_model classify_stability expm_projectors
loaded_string_frequency_series sample_trajectory scalar_residue_solve solve_jordan
solve_modal spectral_projectors time_grid
""".split())


@pytest.mark.parametrize("make, text", DATACLASS_REPRS)
def test_repr_is_the_dataclass_text(make, text):
    assert repr(make()) == text


def test_equality_and_hash_ignore_cached_entries():
    a, b = RatMatrix.from_rows([[1, 2], [2, 5]]), RatMatrix.from_rows([[1, 2], [2, 5]])
    a.is_symmetric()
    inertia(a)  # stores its counts in the matrix's instance dict
    assert {"_symmetric", "_inertia"} <= vars(a).keys()
    assert not {"_symmetric", "_inertia"} & vars(b).keys()
    assert a == b and hash(a) == hash(b)
    p, q = Pencil.similarity(a), Pencil.similarity(b)
    p.char_poly()
    assert p == q and hash(p) == hash(q)
    assert a != a.scale(2) and p != Pencil.classical(a)


def test_equality_and_hash_ignore_the_inertia_matrix():
    one, other = inertia(RatMatrix.identity(2)), inertia(M)
    assert one.matrix != other.matrix
    assert one == other and hash(one) == hash(other)
    assert one.minor_sequence != other.minor_sequence


def test_equality_needs_the_same_class():
    a = RatMatrix.identity(1)
    assert a != (1, 1, a.den, a.nums) and a.__eq__(object()) is NotImplemented
    assert QFactor(ROOT, Fraction(1)) != QFactor(ROOT, Fraction(2))


def test_hash_is_the_hash_of_the_fields():
    assert hash(M) == hash((M.rows, M.cols, M.den, M.nums))


@pytest.mark.parametrize("record, field", [(M, "rows"), (ROOT, "lo"), (Mode(*MODE_ARGS), "omega"),
                                           (inertia(M), "matrix")])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(FrozenRecordError):
        delattr(record, field)
    with pytest.raises(FrozenRecordError):
        record.new_attribute = 1
    assert getattr(record, field) is before


def test_pencil_still_validates():
    with pytest.raises(PreconditionError, match="orientation"):
        Pencil(M, M, "s-AB")
    with pytest.raises(PreconditionError, match="square"):
        Pencil(RatMatrix.zeros(1, 2), M)
    with pytest.raises(PreconditionError, match="equal size"):
        Pencil(RatMatrix.identity(1), M)


def test_defaults():
    assert Pencil(M, M).orientation == "sA-B" and Pencil(M, M) == Pencil(M, M, "sA-B")
    assert QFactor(ROOT, Fraction(3)).scale == 1
    assert JordanBlock(Fraction(2), 0.0, 1, ((Fraction(1),),)).sin_coeffs == ()


def test_wrong_argument_counts_raise_type_error():
    with pytest.raises(TypeError):
        RatMatrix(1, 1, 1)
    with pytest.raises(TypeError):
        RatMatrix(1, 1, 1, (1,), None)
    with pytest.raises(TypeError):
        inertia(M).__class__(1, 0, 0, "minor-formula")


def test_replace():
    root = RealRoot.isolated(1, 2, Poly([-2, 0, 1]))
    narrower = replace(root, lo=Fraction(5, 4), hi=Fraction(3, 2))
    assert (narrower.lo, narrower.hi, narrower.poly) == (Fraction(5, 4), Fraction(3, 2), root.poly)
    assert root.lo == 1 and replace(root) == root and replace(root) is not root
    with pytest.raises(TypeError, match="no field"):
        replace(root, width=1)
    with pytest.raises(PreconditionError):
        replace(Pencil(M, M), orientation="AB")


def test_copy_and_pickle_keep_the_record():
    p = Pencil.similarity(M)
    p.char_poly()
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and hash(clone) == hash(p)
        assert clone.char_poly() == p.char_poly()
    report = copy.deepcopy(inertia(M))
    assert report == inertia(M) and report.matrix == M


def test_ignored_fields_must_be_last():
    with pytest.raises(TypeError, match="last"):
        class Bad(Record, ignore=("a",)):
            a: int
            b: int


def test_a_record_has_one_to_seven_fields():
    with pytest.raises(TypeError, match="one to seven"):
        class Empty(Record):
            pass


def test_fields_with_defaults_must_be_last():
    with pytest.raises(TypeError, match="defaults"):
        class Bad(Record):
            a: int = 0
            b: int


def test_the_package_exports_the_same_names():
    assert sorted(secular.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(secular))
    namespace = {}
    exec("from secular import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert secular.inertia is inertia and secular.Pencil is Pencil


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        secular.nonexistent
