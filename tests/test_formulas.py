import subprocess
import sys
import threading

import pytest

import lambdakit.formulas as formulas
from conftest import AUX, LAMBDA2, LAMBDA3, child_env
from lambdakit import (
    ExactnessError,
    InconsistentInputError,
    InvalidParameterError,
    count_lambda,
    count_split,
    dp_count,
    lambda2_anand,
    lambda2_good,
    lambda2_partition_sum,
    lambda2_plus,
    lambda2_system,
    lambda3_explicit,
    lambda_minus_from_plus,
    lambda_plus_from_total,
)

ALL_ROUTES = [lambda2_partition_sum, lambda2_anand, lambda2_good,
              lambda n: lambda2_system(n)[0]]


class TestPartitionSum:
    def test_base_values(self):
        assert lambda2_partition_sum(1) == 0  # no partition of 1 into parts >= 2
        assert lambda2_partition_sum(2) == 1

    def test_n4_term_structure(self):
        # two partitions contribute: one part 4 gives 72, two parts 2 give 18
        assert lambda2_partition_sum(4) == 90


class TestRecursions:
    @pytest.mark.parametrize("route", ALL_ROUTES)
    def test_known_values(self, route):
        for n, expected in LAMBDA2.items():
            assert route(n) == expected

    def test_anand_substitution_n4_n5(self):
        assert lambda2_anand(4) == 90    # = 18 * (5*1 + 4*0)
        assert lambda2_anand(5) == 2040  # = 40 * (7*6 + 9*1)

    def test_good_substitution(self):
        assert lambda2_good(3) == 6
        assert lambda2_good(4) == 3 * 4 * 6 + 9 * 4 // 2 * 1
        assert lambda2_good(5) == 4 * 5 * 90 + 16 * 5 // 2 * 6

    def test_system_values(self):
        assert lambda2_system(3) == (6, 0)
        assert lambda2_system(4) == (90, 9)
        assert lambda2_system(5) == (2040, 576)
        for n, aux in AUX.items():
            assert lambda2_system(n)[1] == aux

    def test_four_way_agreement(self):
        for n in range(1, 31):
            values = {route(n) for route in ALL_ROUTES}
            assert len(values) == 1

    def test_monotone_growth(self):
        for n in range(3, 40):
            assert lambda2_good(n) < lambda2_good(n + 1)

    @pytest.mark.parametrize("route", ALL_ROUTES + [lambda3_explicit])
    def test_rejects_nonpositive(self, route):
        with pytest.raises(InvalidParameterError):
            route(0)
        with pytest.raises(InvalidParameterError):
            route(-2)


class TestCornerOneFormula:
    def test_known_values(self):
        assert lambda2_plus(3) == 4
        assert lambda2_plus(4) == 45
        assert lambda2_plus(5) == 816

    def test_matches_enumeration(self):
        for n in range(3, 7):
            assert lambda2_plus(n) == count_split(n, 2).plus

    def test_matches_share_of_total(self):
        for n in range(3, 41):
            assert lambda2_plus(n) == lambda_plus_from_total(n, 2, lambda2_good(n))

    def test_needs_n_at_least_3(self):
        with pytest.raises(InvalidParameterError):
            lambda2_plus(2)


class TestShareConversions:
    def test_plus_from_total(self):
        assert lambda_plus_from_total(3, 2, 6) == 4
        assert lambda_plus_from_total(2, 2, 1) == 1
        assert lambda_plus_from_total(4, 2, 90) == 45

    def test_minus_from_plus(self):
        assert lambda_minus_from_plus(3, 2, 4) == 2
        assert lambda_minus_from_plus(4, 4, 7) == 0  # k = n forces corner 1
        assert lambda_minus_from_plus(3, 1, 2) == 4

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(InconsistentInputError):
            lambda_plus_from_total(3, 2, 5)
        with pytest.raises(InconsistentInputError):
            lambda_minus_from_plus(3, 2, 5)

    def test_parameter_domain(self):
        with pytest.raises(InvalidParameterError):
            lambda_plus_from_total(3, 0, 6)
        with pytest.raises(InvalidParameterError):
            lambda_minus_from_plus(3, 4, 6)


class TestExplicitK3:
    def test_known_values(self):
        assert lambda3_explicit(1) == 0
        assert lambda3_explicit(2) == 0
        for n, expected in LAMBDA3.items():
            assert lambda3_explicit(n) == expected

    def test_matches_enumeration(self):
        for n in range(3, 7):
            assert lambda3_explicit(n) == count_lambda(n, 3)

    def test_matches_dp(self):
        for n in range(3, 16):
            assert lambda3_explicit(n) == dp_count(n, 3)


def test_exactness_checks_survive_optimize_flag():
    # a corrupted base value aux(4) drives the coupled recursion
    # negative; python -O strips asserts, so the check must be a raise
    code = (
        "import lambdakit.formulas as f\n"
        "f._SYS_AUX[4] = 10 ** 6\n"
        "try:\n"
        "    f.lambda2_system(5)\n"
        "except f.ExactnessError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: ")



# each route with its memo lists and the number of base entries they start with
MEMOS = [
    (lambda2_anand, {"_ANAND": 4}),
    (lambda2_good, {"_GOOD": 3}),
    (lambda2_system, {"_SYS_LAM": 3, "_SYS_AUX": 5}),
]


@pytest.mark.parametrize("route,bases", MEMOS, ids=["anand", "good", "system"])
def test_memos_survive_concurrent_extension(route, bases):
    # a lost update appends one value twice and shifts every later
    # entry, so the memo no longer matches a single-threaded fill
    def reset():
        for name, keep in bases.items():
            del getattr(formulas, name)[keep:]

    def memos():
        return {name: list(getattr(formulas, name)) for name in bases}

    reset()
    expected = [route(n) for n in range(1, 121)]
    filled = memos()
    interval = sys.getswitchinterval()
    try:
        for _ in range(20):
            reset()
            wrong = []

            def worker(first):
                for n in list(range(first, 121)) + list(range(1, first)):
                    try:
                        if route(n) != expected[n - 1]:
                            wrong.append(n)
                    except ExactnessError:
                        wrong.append(n)

            threads = [threading.Thread(target=worker, args=(1 + 29 * t,)) for t in range(4)]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert wrong == []
            assert memos() == filled
    finally:
        sys.setswitchinterval(interval)
