import math
from fractions import Fraction

import numpy as np
import pytest

from moranspec import (
    IntervalUnion,
    Level,
    LevelClass,
    MoranStructureError,
    MoranSyntaxError,
    MoranSystem,
    SpectrumLevel,
    ZeroWitness,
    certify,
    check_orthogonal,
    classify_level,
    density_histogram,
    fourier_tail,
    level_spectrum,
    make_system,
    mask_eval,
    normalize_level,
    parse_system,
    zero_set_contains,
)
from moranspec.core import two_adic_split
from moranspec.corpus import CheckResult
from conftest import atom_numerators, level_atoms, sorted_sums


class TestParse:
    def test_cycle_only(self):
        s = parse_system("cycle: (2,{0,1}) (3,{0,1,2})")
        assert s.level(1).phi == 2 and s.level(2).phi == 3
        assert s.level(3).phi == 2 and s.level(4).phi == 3  # cycle repeats

    def test_preamble_only_finite(self):
        s = parse_system("preamble: (4,{0,2})")
        assert s.level(1).p == 4
        assert s.finite_length == 1
        with pytest.raises(MoranStructureError):
            s.level(2)

    def test_p_too_small(self):
        with pytest.raises(MoranStructureError):
            parse_system("cycle: (1,{0,1})")

    def test_duplicate_digits(self):
        with pytest.raises(MoranStructureError):
            parse_system("cycle: (2,{0,1,1})")

    def test_empty_digits(self):
        with pytest.raises(MoranStructureError):
            parse_system("cycle: (2,{})")

    def test_comments_and_whitespace(self):
        s = parse_system("# heading\n  cycle:\n   (2, { 0 , 1 })  # tail\n")
        assert s.level(5).p == 2

    def test_syntax_errors(self):
        with pytest.raises(MoranSyntaxError):
            parse_system("(2,{0,1})")  # entry before header
        with pytest.raises(MoranSyntaxError):
            parse_system("cycle: (2,{0,1}) junk")
        with pytest.raises(MoranSyntaxError):
            parse_system("cycle: (2,{0,1}) preamble: (2,{0,1})")
        with pytest.raises(MoranSyntaxError):
            parse_system("cycle: (2,{0,1}) cycle: (2,{0,1})")

    def test_no_levels(self):
        with pytest.raises(MoranStructureError):
            parse_system("preamble:\ncycle:")

    def test_negative_entries_normalized(self):
        s = parse_system("cycle: (-2,{0,-3})")
        lvl = s.level(1)
        assert lvl.p == 2 and lvl.digits == (0, 3)


class TestClassify:
    def test_t1(self):
        ds = classify_level(12, [0, 1, 2, 3])
        assert ds.cls is LevelClass.T1 and ds.phi == 4

    def test_invalid_mod3(self):
        ds = classify_level(8, [0, 5, 6])
        assert ds.cls is LevelClass.INVALID
        assert any("mod 3" in v for v in ds.violations)

    def test_t3(self):
        ds = classify_level(4, [0, 2])
        assert ds.cls is LevelClass.T3
        assert ds.digits[1] == 2 and two_adic_split(ds.digits[1]) == (1, 1)

    def test_t2_boundary_warning(self):
        ds = classify_level(3, [0, 1, 2])
        assert ds.cls is LevelClass.T2
        assert "boundary-ratio" in ds.warnings

    def test_t2_ratio_violation(self):
        ds = classify_level(3, [0, 1, 5])
        assert ds.cls is LevelClass.INVALID

    def test_consecutive_needs_divisibility(self):
        assert classify_level(10, [0, 1, 2, 3]).cls is LevelClass.INVALID
        assert classify_level(4, [0, 1, 2, 3]).cls is LevelClass.INVALID  # p == N

    def test_t3_even_cofactor(self):
        assert classify_level(9, [0, 2]).cls is LevelClass.INVALID
        assert classify_level(8, [0, 6]).cls is LevelClass.T3

    def test_nonconsecutive_large(self):
        assert classify_level(12, [0, 1, 2, 5]).cls is LevelClass.INVALID


class TestNormalize:
    def test_negative_digits(self):
        assert normalize_level(-2, [0, -3]) == (2, (0, 3))

    def test_identity(self):
        assert normalize_level(2, [0, 3]) == (2, (0, 3))

    def test_sign_flip_only(self):
        assert normalize_level(-4, [0, 2]) == (4, (0, 2))

    def test_unshiftable(self):
        with pytest.raises(MoranStructureError):
            normalize_level(2, [-1, 0, 2])

    def test_mask_modulus_preserved(self, rng):
        cases = [(-2, (0, -3)), (-4, (0, -2)), (5, (0, -1, -4)), (-9, (0, -2, -7))]
        for p, digits in cases:
            q, shifted = normalize_level(p, digits)
            xs = rng.uniform(-50, 50, 1000)
            before = np.abs(mask_eval(digits, xs / p))
            after = np.abs(mask_eval(shifted, xs / q))
            assert np.max(np.abs(before - after)) < 1e-12


class TestMask:
    def test_two_point_zero(self):
        assert abs(mask_eval([0, 1], 0.5)) < 1e-15

    def test_cube_root_zero(self):
        assert abs(mask_eval([0, 1, 2], 1 / 3)) < 1e-15

    def test_at_zero(self):
        for digits in [(0, 1), (0, 5, 7), tuple(range(9))]:
            assert mask_eval(digits, 0.0) == 1.0

    def test_array_broadcast(self):
        xs = np.linspace(-2, 2, 11)
        vals = mask_eval([0, 1], xs)
        assert vals.shape == xs.shape
        assert np.all(np.abs(vals) <= 1 + 1e-12)


class TestAtoms:
    def test_binary_two_levels(self, dyadic_system):
        assert level_atoms(dyadic_system, 2) == (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                                 Fraction(3, 4))

    def test_final_level_one(self, final_system):
        assert level_atoms(final_system, 1) == (Fraction(0), Fraction(1, 2))

    def test_nonuniform_nine_atoms(self, nonuniform_system):
        expected = (0, Fraction(1, 2), 1, Fraction(5, 4), Fraction(3, 2),
                    Fraction(7, 4), 2, Fraction(9, 4), Fraction(5, 2))
        assert level_atoms(nonuniform_system, 2) == tuple(Fraction(e) for e in expected)

    def test_atom_count_matches_phi_product(self, final_system, mixed_system):
        for s in (final_system, mixed_system):
            for n in range(1, 6):
                assert len(level_atoms(s, n)) == s.phi_product(n)

    def test_collision_detected(self):
        # 1/2 from level one equals 2/4 from level two: colliding words repeat
        # their numerator 2 d_1 + d_2, so the atom carries their mass
        s = make_system(cycle=[(2, (0, 1, 2, 3))])
        nums = atom_numerators(s, 2).tolist()
        assert nums == sorted(2 * a + b for a in range(4) for b in range(4))
        assert nums.count(4) == 2


class TestMinkowskiSum:
    """The sorted Minkowski sum of ``_outer_sums``, as ``SpectrumLevel.points`` takes it."""

    def test_int64_up_to_the_bound(self):
        # sum of max|f| = 2**63 - 1: every partial sum fits in int64
        sums = sorted_sums([(0, 2**62), (0, 2**62 - 1)])
        assert sums.dtype == np.int64
        assert sums.tolist() == [0, 2**62 - 1, 2**62, 2**63 - 1]

    def test_python_ints_past_the_bound(self):
        sums = sorted_sums([(0, 2**62), (2**62, 0)])
        assert sums.dtype == object
        assert sums.tolist() == [0, 2**62, 2**62, 2**63]  # a collision stays visible

    def test_negative_factors(self):
        sums = sorted_sums([(-(2**62), 1), (-(2**62) + 1, 0)])
        assert sums.dtype == np.int64
        assert sums.tolist() == [-(2**63) + 1, -(2**62), -(2**62) + 2, 1]
        sums = sorted_sums([(-(2**62), 1), (-(2**62), 0)])
        assert sums.dtype == object
        assert sums.tolist() == [-(2**63), -(2**62), -(2**62) + 1, 1]

    def test_no_factors(self):
        assert sorted_sums([]).tolist() == [0]


class TestFourier:
    def test_product_equals_direct_sum(self, final_system, nonuniform_system,
                                       mixed_system, rng):
        for s in (final_system, nonuniform_system, mixed_system):
            for n in (1, 3, 6):
                pos = np.array([float(a) for a in level_atoms(s, n)])
                w = 1 / len(pos)
                xs = rng.uniform(-10, 10, 100)
                direct = np.array([
                    np.sum(w * np.exp(-2j * np.pi * pos * x)) for x in xs
                ])
                prod, _ = fourier_tail(s, 0, xs, n)
                assert np.max(np.abs(prod - direct)) < 1e-12

    def test_recursion(self, final_system, rng):
        for x in rng.uniform(-20, 20, 50):
            for n in (1, 2, 5):
                lhs, _ = fourier_tail(final_system, 0, x, n)
                P = final_system.P(n)  # x reduced mod P_n exactly, as the product does
                prev = fourier_tail(final_system, 0, x, n - 1)[0] if n > 1 else 1
                rhs = prev * mask_eval(
                    final_system.level(n).digits, math.fmod(x, P) / P
                )
                assert abs(lhs - rhs) < 1e-15

    def test_large_xi_reduced_exactly(self, mixed_system, rng):
        # xi is reduced mod P_i before the division: the product stays exact
        # to rounding far from the origin (unreduced, it was off by 2e-5)
        for x in rng.uniform(1e11, 1e12, 30):
            oracle = complex(1.0)
            for i in range(1, 5):
                P = mixed_system.P(i)
                oracle *= mask_eval(mixed_system.level(i).digits,
                                    float(Fraction(x) % P / P))
            assert abs(fourier_tail(mixed_system, 0, x, 4)[0] - oracle) < 1e-12

    def test_reflection_symmetry(self, mixed_system, rng):
        for x in rng.uniform(-20, 20, 50):
            assert abs(
                abs(fourier_tail(mixed_system, 0, x, 4)[0])
                - abs(fourier_tail(mixed_system, 0, -x, 4)[0])
            ) < 1e-13

    def test_simple_values(self, dyadic_system, final_system):
        assert abs(fourier_tail(dyadic_system, 0, 1.0, 1)[0]) < 1e-15
        assert fourier_tail(final_system, 0, 0.0, 4)[0] == 1.0
        assert abs(fourier_tail(final_system, 0, 3.0, 2)[0]) < 1e-15

    def test_zero_set_kills_transform(self, final_system):
        for xi in (1, 2, 3, 5, Fraction(7, 2) * 2):
            w = zero_set_contains(final_system, Fraction(xi))
            assert w is not None
            for n in range(w.level, w.level + 4):
                assert abs(fourier_tail(final_system, 0, float(xi), n)[0]) < 1e-12

    def test_level_past_float_range(self):
        # P_400 = 8**400 overflows a float; the factors past about level 20
        # equal 1 to double precision
        s = make_system(cycle=[(8, (0, 1, 2, 3))])
        assert fourier_tail(s, 0, 0.5, 400)[0] == fourier_tail(s, 0, 0.5, 20)[0]


class TestFourierTail:
    def test_at_zero(self, final_system):
        val, err = fourier_tail(final_system, 3, 0.0, 10)
        assert val == 1.0 and err == 0.0

    def test_matches_cos_product(self, dyadic_system):
        val, _ = fourier_tail(dyadic_system, 0, 1 / 3, 20)
        oracle = math.prod(math.cos(math.pi / (3 * 2 ** i)) for i in range(1, 21))
        assert abs(abs(val) - oracle) < 1e-12

    def test_error_bound_shrinks(self, final_system):
        errs = [fourier_tail(final_system, 2, 0.7, depth)[1]
                for depth in (1, 3, 6, 12, 20)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6

    def test_bound_is_honest(self, final_system):
        # deeper truncations must stay within the shallower bound
        xi = 0.9
        for depth in (3, 5, 8):
            val, err = fourier_tail(final_system, 1, xi, depth)
            deeper, _ = fourier_tail(final_system, 1, xi, depth + 15)
            assert abs(deeper - val) <= abs(val) * err + 1e-15

    def test_level_past_float_range(self):
        s = make_system(cycle=[(8, (0, 1, 2, 3))])
        val, err = fourier_tail(s, 380, 0.5, 30)
        assert (val, err) == fourier_tail(s, 30, 0.5, 30)
        assert val == 1.0 and 0.0 < err < 1e-16


class TestZeroSet:
    def test_witness_levels(self, final_system):
        w1 = zero_set_contains(final_system, 1)
        assert w1 is not None and w1.level == 1
        w2 = zero_set_contains(final_system, 2)
        assert w2 is not None and w2.level == 2

    def test_zero_not_member(self, final_system, mixed_system):
        assert zero_set_contains(final_system, 0) is None
        assert zero_set_contains(mixed_system, Fraction(0)) is None

    def test_max_level_restriction(self, final_system):
        assert zero_set_contains(final_system, 2, max_level=1) is None
        assert zero_set_contains(final_system, 2, max_level=2) is not None

    def test_non_members(self, final_system):
        for xi in (Fraction(1, 7), Fraction(5, 11), Fraction(1, 2) + 100):
            assert zero_set_contains(final_system, xi) is None

    def test_family_membership_all_classes(self, mixed_system):
        # T3 level 1: P_1 (2Z+1)/(2 d) = 4*(odd)/4
        assert zero_set_contains(mixed_system, Fraction(4 * 3, 4)) is not None
        # T2 level 2: P_2 (3Z+{1,2})/3 = 48*(3k+1)/3
        assert zero_set_contains(mixed_system, Fraction(48 * 4, 3)) is not None
        # T1 level 3: P_3 (Z \ 4Z)/4 = 384*k/4, 4 not dividing k
        assert zero_set_contains(mixed_system, Fraction(384 * 5, 4)) is not None

    def test_invalid_levels_contribute_nothing(self, nonuniform_system):
        # every level is inadmissible, so the displayed zero set is empty
        for xi in (1, 2, 3, Fraction(5, 4)):
            assert zero_set_contains(nonuniform_system, xi) is None


class TestSystemAccessors:
    def test_products(self, final_system, mixed_system, nonuniform_system):
        assert [final_system.P(n) for n in range(5)] == [1, 2, 6, 12, 36]
        assert final_system.phi_product(4) == 36
        # one pow past the preamble, against the level-by-level product
        for s in (final_system, mixed_system, nonuniform_system):
            assert [s.phi_product(n) for n in range(-1, 12)] == [1] + [
                math.prod(s.level(i).phi for i in range(1, n + 1)) for n in range(12)]

    def test_max_digit_ratio(self, nonuniform_system):
        assert nonuniform_system.max_digit_ratio == Fraction(3, 1)

    def test_tail_max_sum(self, final_system, nonuniform_system):
        # alternating system: sum_{i>n} max(D_i)/P_i telescopes to 1/P_n
        for n in (1, 2, 7, 10):
            assert final_system.tail_max_sum(n) == Fraction(1, final_system.P(n))
        # eventually constant {0,3}/2^i tail
        assert nonuniform_system.tail_max_sum(6) == Fraction(3, 64)


def records(system) -> list[tuple[object, tuple[str, ...]]]:
    """Each of the package's frozen records, built from ``system``, with its fields in order."""
    spec = level_spectrum(system, 4)
    return [
        (system.level(1), ("p", "digits", "cls", "warnings", "violations")),
        (system, ("preamble", "cycle")),
        (zero_set_contains(system, Fraction(1)), ("level", "cls", "zero")),
        (spec, ("system", "level", "companions")),
        (check_orthogonal(system, spec),
         ("point_count", "pairs_checked", "failures", "witness_levels")),
        (certify(system), ("verdict", "checkpoint", "diagnostics")),
        (IntervalUnion.from_intervals([(0, Fraction(1, 2)), (1, 2)]), ("ends", "den")),
        (density_histogram(system, 6, 8), ("edges", "counts", "density", "atom_count", "hull")),
        (CheckResult("final", "certify", "PASS", "PASS", True),
         ("example", "check", "expected", "observed", "ok")),
    ]


class TestRecords:
    def test_fields_are_frozen(self, final_system):
        for record, fields in records(final_system):
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_constructors_keep_their_signature(self, final_system):
        for record, fields in records(final_system):
            assert record._fields == fields  # the parameters of __init__
            values = [getattr(record, name) for name in fields]
            for rebuilt in (type(record)(*values), type(record)(**dict(zip(fields, values)))):
                assert [getattr(rebuilt, name) for name in fields] == values
            with pytest.raises(TypeError):
                type(record)(*values, None)
            with pytest.raises(TypeError):
                type(record)()
        assert Level(4, (0, 1), LevelClass.T3) == classify_level(4, (0, 1))  # defaults ()
        assert IntervalUnion(np.array([0, 1])).den == 1

    def test_repr_names_the_fields(self, final_system):
        assert repr(classify_level(4, (0, 1))) == (
            "Level(p=4, digits=(0, 1), cls=<LevelClass.T3: 'T3'>, warnings=(), violations=())")
        assert repr(ZeroWitness(1, LevelClass.T3, Fraction(1))) == (
            "ZeroWitness(level=1, cls=<LevelClass.T3: 'T3'>, zero=Fraction(1, 1))")
        for record, fields in records(final_system):
            text = repr(record)
            assert text.startswith(type(record).__name__ + "(")
            starts = [text.index(f"{name}=") for name in fields]
            assert starts == sorted(starts)

    def test_equality_and_hash_follow_the_fields(self, final_system, mixed_system):
        for record, fields in records(final_system):
            values = tuple(getattr(record, name) for name in fields)
            if any(isinstance(value, np.ndarray) for value in values):
                continue  # IntervalUnion compares its intervals; a Histogram's arrays cannot
            copy = type(record)(*values)
            assert copy == record and hash(copy) == hash(record)
            assert record != values  # a tuple of the fields is another class
        assert Level(4, (0, 1), LevelClass.T3) != Level(4, (0, 1), LevelClass.INVALID)
        assert {classify_level(4, [0, 1]), classify_level(4, (1, 0)),
                classify_level(8, (0, 1))} == {Level(4, (0, 1), LevelClass.T3),
                                               classify_level(8, [1, 0])}
        assert zero_set_contains(final_system, Fraction(1)) == ZeroWitness(
            1, LevelClass.T3, Fraction(1))
        assert zero_set_contains(final_system, Fraction(3)) != ZeroWitness(
            1, LevelClass.T3, Fraction(1))
        assert parse_system("cycle: (2,{0,1}) (3,{0,1,2})") == final_system != mixed_system
        spec = level_spectrum(mixed_system, 5)
        report = check_orthogonal(mixed_system, spec)
        assert report == check_orthogonal(mixed_system, SpectrumLevel(
            mixed_system, 5, tuple(spec.unfolded())))
        assert report != check_orthogonal(mixed_system, level_spectrum(mixed_system, 4))

    def test_interval_union_compares_intervals(self):
        half = IntervalUnion(np.array([0, 1]), 2)
        same = [IntervalUnion(np.array([0, 2]), 4),
                IntervalUnion(np.array([0, 1], dtype=object), 2),
                IntervalUnion.from_intervals([(0, Fraction(1, 4)),
                                              (Fraction(1, 4), Fraction(1, 2))])]
        for other in same:
            assert other == half and hash(other) == hash(half)
        assert half != IntervalUnion(np.array([0, 1]), 3) and half != half.intervals

    def test_cached_properties_fill(self, final_system):
        spec = level_spectrum(final_system, 4)
        cover = IntervalUnion.from_intervals([(0, 1)])
        hist = density_histogram(final_system, 6, 8)
        for record, name in ((spec, "points"), (final_system, "max_digit_ratio"),
                             (cover, "intervals"), (hist, "empty_fraction")):
            assert name not in vars(record)
            value = getattr(record, name)
            assert vars(record)[name] is value and getattr(record, name) is value
        assert spec.points == tuple(sorted(spec.points)) and len(spec.points) == 36
        assert final_system.max_digit_ratio == Fraction(2, 3)
        assert cover.intervals == ((0, 1),) and hist.empty_fraction == 0.0
