import pytest
from hypothesis import given, strategies as st

from hsagg.field import ModulusMismatch, PrimeField, ZeroInverse, is_prime
from hsagg.matrix import GfMatrix

PRIMES = [2, 3, 5, 7, 11, 13]


def test_primality_check():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_composite_modulus_rejected():
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField(True)


def test_addition():
    # residues add as integers; the matrix layer reduces every sum
    f7 = PrimeField(7)
    ones = GfMatrix(f7, [(1, 1)])
    assert (ones @ GfMatrix(f7, [(5,), (4,)])).data == ((2,),)
    assert (GfMatrix(PrimeField(3), [(1, 1)]) @ GfMatrix(PrimeField(3), [(2,), (2,)])).data == ((1,),)
    for x in range(7):
        assert (ones @ GfMatrix(f7, [(0,), (x,)])).data == ((x,),)


def test_multiplication():
    f7 = PrimeField(7)
    assert (GfMatrix(f7, [(3,)]) @ GfMatrix(f7, [(3,)])).data == ((2,),)
    assert (GfMatrix(f7, [(4,)]) @ GfMatrix(f7, [(4,)])).data == ((2,),)
    for x in range(7):
        assert (GfMatrix(f7, [(1,)]) @ GfMatrix(f7, [(x,)])).data == ((x,),)


def test_inverse():
    f7 = PrimeField(7)
    assert f7.inv(2) == 4
    assert f7.inv(1) == 1
    assert PrimeField(5).inv(3) == 2
    with pytest.raises(ZeroInverse):
        f7.inv(0)
    with pytest.raises(ZeroInverse):
        f7.inv(14)


def test_power():
    f7 = PrimeField(7)
    assert f7.pow(3, 2) == 2
    assert f7.pow(4, 2) == 2
    for x in range(7):
        assert f7.pow(x, 0) == 1
    with pytest.raises(ValueError):
        f7.pow(3, -1)


def test_modulus_mismatch():
    a = GfMatrix(PrimeField(7), [(3,)])
    b = GfMatrix(PrimeField(5), [(3,)])
    assert PrimeField(7) != PrimeField(5)
    with pytest.raises(ModulusMismatch):
        a @ b
    with pytest.raises(ModulusMismatch):
        b @ a


def test_int_interop_and_canonical_form():
    # any integer is accepted and comes back as its canonical residue
    f7 = PrimeField(7)
    assert GfMatrix(f7, [(10, -1, 14)]).data == ((3, 6, 0),)
    assert f7.pow(10, 1) == 3
    assert f7.pow(-2, 1) == 5
    assert f7.inv(9) == f7.inv(2) == 4
    assert f7.inv(-2) == 3
    # 3 / 5 = 3 * inv(5)
    assert 3 * f7.inv(5) % 7 == 2


@st.composite
def field_and_values(draw, count):
    q = draw(st.sampled_from(PRIMES))
    return (PrimeField(q), *(draw(st.integers(0, q - 1)) for _ in range(count)))


@given(field_and_values(3))
def test_field_axioms(fv):
    # powers and inverses respect the multiplicative structure of GF(q)
    f, a, b, c = fv
    q = f.q
    assert f.pow(a * b, c) == f.pow(a, c) * f.pow(b, c) % q
    assert f.pow(a, b + c) == f.pow(a, b) * f.pow(a, c) % q
    assert f.pow(a + q, c) == f.pow(a, c)
    if a and b:
        assert f.inv(a * b) == f.inv(a) * f.inv(b) % q
        assert f.pow(a, q - 1) == 1


@given(field_and_values(1))
def test_inverse_cancels(fv):
    f, a = fv
    if a != 0:
        assert a * f.inv(a) % f.q == 1
        assert f.inv(f.inv(a)) == a


@given(field_and_values(1), st.integers(0, 16))
def test_pow_matches_repeated_multiplication(fv, e):
    f, a = fv
    acc = 1
    for _ in range(e):
        acc = acc * a % f.q
    assert f.pow(a, e) == acc


def test_elements_enumeration():
    # every nonzero residue has exactly one inverse, and fields hash by modulus
    for q in PRIMES:
        f = PrimeField(q)
        assert sorted(f.inv(x) for x in range(1, q)) == list(range(1, q))
    assert hash(PrimeField(5)) == hash(PrimeField(5))
