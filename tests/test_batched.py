"""The batched univariate Monte Carlo against a per-replication scalar loop.

The reference below rebuilds every replication on its own, as the harness
did before batching: its own ``(seed, r, 0)`` stream, a scalar CD, and the
mappings written piece by piece with Python floats and one ``cdf`` call per
endpoint.  Batched p-values must equal it bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsupport import (
    ConfidenceDistribution,
    ExperimentSpec,
    PART2_COV,
    Rectangle,
    bootstrap_cloud,
    cd as cd_module,
    direct_support,
    make_asymptotic_normal_cd,
    make_bootstrap_cd,
    make_student_t_cd,
    p_value,
    parse_region,
    run_experiment,
    simulate,
    support,
)
from cdsupport.regions import Interval, NullRegion
from helpers import (
    boundary_points,
    full_support,
    indirect_support,
    max_direct_p,
    p_max_uni,
    p_star,
)

# -- scalar reference --------------------------------------------------------


def _clamp01(x):
    return min(max(x, 0.0), 1.0)


def _ref_direct_piece(cd, pc):
    if pc.is_singleton:
        return 0.0
    return _clamp01(cd.cdf(pc.hi) - cd.cdf(pc.lo))


def _ref_tail(cd, theta):
    h = cd.cdf(theta)
    return 2.0 * min(h, 1.0 - h)


def _ref_indirect_piece(cd, pc):
    if math.isinf(pc.lo) or math.isinf(pc.hi):
        return 0.0
    if pc.is_singleton:
        return _clamp01(_ref_tail(cd, pc.lo))
    return _clamp01(min(_ref_tail(cd, pc.lo), _ref_tail(cd, pc.hi)))


def _ref_full_piece(cd, pc):
    return _clamp01(_ref_direct_piece(cd, pc) + _ref_indirect_piece(cd, pc))


def _ref_direct(cd, region):
    return _clamp01(sum(_ref_direct_piece(cd, pc) for pc in region.pieces))


def _ref_p_star(cd, region):
    fulls = sorted((_ref_full_piece(cd, pc) for pc in region.pieces), reverse=True)
    return fulls[0] if len(fulls) == 1 else _clamp01(fulls[0] - fulls[1])


def _ref_p_max(cd, region):
    sd = _ref_direct(cd, region)
    boundary = boundary_points(region)
    if not boundary:
        return sd
    return max(sd, max(_clamp01(_ref_tail(cd, v)) for v in boundary))


REFERENCE = {
    "full": lambda cd, region: max(_ref_full_piece(cd, pc) for pc in region.pieces),
    "direct": _ref_direct,
    "max-direct": lambda cd, region: max(_ref_direct_piece(cd, pc) for pc in region.pieces),
    "p-star": _ref_p_star,
    "p-max": _ref_p_max,
}


def replay_uni(spec):
    """Sorted p-values of a univariate run, rebuilt one replication at a time."""
    out = np.empty(spec.reps)
    for r in range(spec.reps):
        rng = np.random.default_rng([spec.seed, r, 0])
        y = spec.true_mean + spec.sd * rng.standard_normal(spec.n)
        mean, sd = float(y.mean()), float(y.std(ddof=1))
        if spec.cd == "t":
            cd = make_student_t_cd(spec.n, mean, sd)
        elif spec.cd == "z":
            cd = make_asymptotic_normal_cd(spec.n, mean, sd)
        else:
            cd = make_bootstrap_cd(y, spec.boot_m, seed=[spec.seed, r, 1])
        out[r] = REFERENCE[spec.method](cd, spec.region)
    out.sort()
    return out


# -- regions -----------------------------------------------------------------

_ENDS = st.sampled_from([-0.3, -0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1, 0.3])


@st.composite
def _piece(draw):
    a, b = sorted((draw(_ENDS), draw(_ENDS)))
    kind = draw(st.sampled_from(["interval"] * 3 + ["singleton"] * 2 + ["lower", "upper"]))
    if kind == "interval":
        return Interval(a, b)
    if kind == "singleton":
        return Interval(a, a)
    if kind == "lower":
        return Interval(-math.inf, a)
    return Interval(b, math.inf)


# pieces drawn from a small grid, so merged and touching pieces are common
REGIONS = st.one_of(
    st.lists(_piece(), min_size=1, max_size=5).map(lambda ps: NullRegion(tuple(ps))),
    st.just(NullRegion((Interval(-math.inf, math.inf),))),
)


@given(
    region=REGIONS,
    method=st.sampled_from(sorted(support.METHODS)),
    cd=st.sampled_from(["t", "z", "bootstrap"]),
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(50, 90),
    block=st.integers(1, 40),
    truth=st.sampled_from([0.0, 0.01, -0.07]),
    sd=st.sampled_from([1.0, 0.3, 2.5]),
)
@settings(max_examples=150, deadline=None)
def test_batched_equals_scalar_replay(region, method, cd, seed, reps, block, truth, sd):
    n = 25
    spec = ExperimentSpec(
        model="univariate-normal", true_mean=truth, region=region, n=n, reps=reps,
        method=method, cd=cd, boot_m=100, seed=seed, sd=sd,
    )
    # a block of `block` replications; reps is rarely a multiple of it
    with mock.patch.object(simulate, "BLOCK_FLOATS", block * n):
        got = run_experiment(spec).pvalues
    assert np.array_equal(got, replay_uni(spec))


@pytest.mark.parametrize("cd", ["t", "z"])
@pytest.mark.parametrize("method", sorted(support.METHODS))
def test_default_block_equals_scalar_replay(method, cd):
    # more replications than one default block holds, and not a multiple of it
    n = 500
    reps = simulate.BLOCK_FLOATS // n + 123
    spec = ExperimentSpec(
        model="univariate-normal", true_mean=0.0,
        region=parse_region("[-0.04,-0.03];[-0.01,0.01];[0.02,0.03];0.05"),
        n=n, reps=reps, method=method, cd=cd, seed=len(method),
    )
    assert np.array_equal(run_experiment(spec).pvalues, replay_uni(spec))


@pytest.mark.parametrize("cd", ["z", "bootstrap"])
@pytest.mark.parametrize("seed", [2**32, 2**64 + 5, 2**96 + 1])
def test_multi_word_seed_equals_scalar_replay(seed, cd):
    n = 20
    spec = ExperimentSpec(
        model="univariate-normal", true_mean=0.0, region=parse_region("[-0.1,0.2]"),
        n=n, reps=70, cd=cd, boot_m=100, seed=seed,
    )
    # blocks of 16 replications: four full blocks and a partial one
    with mock.patch.object(simulate, "BLOCK_FLOATS", 16 * n):
        got = run_experiment(spec).pvalues
    assert np.array_equal(got, replay_uni(spec))


# -- the block's streams against numpy's SeedSequence ----------------------------


@given(
    seed=st.integers(0, 2**128 - 1),
    start=st.integers(0, 2**20),
    length=st.integers(1, 300),
    stream=st.sampled_from([0, 1]),
)
@settings(max_examples=60, deadline=None)
def test_stream_words_equal_seed_sequence(seed, start, length, stream):
    reps = range(start, start + length)
    words = simulate._stream_words(seed, reps, stream)
    assert words.dtype == np.uint64 and words.shape == (length, 4)
    for row, rng, r in zip(words, simulate._streams(seed, reps, stream), reps):
        ss = np.random.SeedSequence([seed, r, stream])
        assert np.array_equal(row, ss.generate_state(4, np.uint64))
        expected = np.random.default_rng([seed, r, stream]).standard_normal(64)
        assert np.array_equal(rng.standard_normal(64), expected)


def test_stream_words_reject_replication_index_beyond_32_bits():
    with pytest.raises(ValueError, match="needs more than 32 bits"):
        simulate._stream_words(0, range(2**32 - 1, 2**32 + 1), 0)


@pytest.mark.parametrize("reps", [range(0, 40, 13), range(10, 0, -1)])
def test_streams_reject_a_range_whose_step_is_not_one(reps):
    message = f"^replication ranges need step 1, got step {reps.step}$"
    with pytest.raises(ValueError, match=message):
        simulate._stream_words(1, reps, 0)
    with pytest.raises(ValueError, match=message):
        simulate._streams(1, reps, 0)


@pytest.mark.parametrize("stream", [0, 1, 2**40 + 7])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128 + 9,
                                  2**200 + 77])
def test_stream_words_equal_seed_sequence_for_every_entropy_length(seed, stream):
    # r enters the pool in each of its slots, and after it once the seed has
    # four words or more; a two-word stream lengthens the entropy too
    reps = range(2**32 - 40, 2**32)
    want = [np.random.SeedSequence([seed, r, stream]).generate_state(4, np.uint64)
            for r in reps]
    assert np.array_equal(simulate._stream_words(seed, reps, stream), want)


def test_a_block_seeds_its_generators_from_one_holder():
    reps = range(5, 9)
    rngs = list(simulate._streams(3, reps, 1))
    assert len({id(rng.bit_generator.seed_seq) for rng in rngs}) == 1
    for r, rng in zip(reps, rngs):
        assert rng.bit_generator.state == np.random.default_rng([3, r, 1]).bit_generator.state


# -- one cdf call per p-value --------------------------------------------------


class CountingCD(ConfidenceDistribution):
    calls = 0

    def cdf(self, theta):
        CountingCD.calls += 1
        return super().cdf(theta)


def _counting(cd):
    return CountingCD(kind=cd.kind, center=cd.center, scale=cd.scale, df=cd.df, grid=cd.grid)


SCALAR_MAPPINGS = {
    "p_value": lambda cd, region: p_value(cd, region).p,
    "direct_support": direct_support,
    "indirect_support": indirect_support,
    "max_direct_p": max_direct_p,
    "p_star": p_star,
    "p_max_uni": p_max_uni,
    "full_support": lambda cd, region: full_support(cd, region.pieces[0]),
}


@pytest.mark.parametrize("name", sorted(SCALAR_MAPPINGS))
def test_each_mapping_makes_one_cdf_call(name):
    sample = np.random.default_rng(8).normal(0.1, 1.0, 30)
    cds = [
        make_student_t_cd(30, sample.mean(), sample.std(ddof=1)),
        make_asymptotic_normal_cd(30, sample.mean(), sample.std(ddof=1)),
        make_bootstrap_cd(sample, 200, seed=3),
    ]
    region = parse_region("(-inf,-0.5];[-0.2,0.1];0.3;[0.6,inf)")
    for cd in cds:
        counted = _counting(cd)
        CountingCD.calls = 0
        assert SCALAR_MAPPINGS[name](counted, region) == SCALAR_MAPPINGS[name](cd, region)
        assert CountingCD.calls == 1, cd.kind


def test_block_cd_makes_one_cdf_call_per_block():
    y = np.random.default_rng(4).standard_normal((64, 30))
    cd = _counting(make_asymptotic_normal_cd(30, y.mean(axis=1), y.std(axis=1, ddof=1)))
    region = parse_region("[-0.1,0.1];0.3")
    CountingCD.calls = 0
    for method in support.METHODS.values():
        assert method(support.support_table(cd, region)).shape == (64,)
    assert CountingCD.calls == len(support.METHODS)


def test_block_cd_rejects_any_nonpositive_sd():
    with pytest.raises(ValueError, match="positive"):
        make_student_t_cd(10, np.zeros(3), np.array([1.0, 0.0, 2.0]))


# -- a failing replication is named --------------------------------------------


def test_univariate_failure_names_replication(monkeypatch):
    spec = ExperimentSpec(
        model="univariate-normal", true_mean=0.0, region=parse_region("[0,0.1]"),
        n=30, reps=80, cd="z", seed=7,
    )
    bad = 53
    y = np.random.default_rng([7, bad, 0]).standard_normal(30)
    bad_mean = float(y.mean())
    real = cd_module.make_asymptotic_normal_cd

    def flaky(n, mean, sd):
        if np.any(np.asarray(mean) == bad_mean):
            raise ValueError("injected failure")
        return real(n, mean, sd)

    monkeypatch.setattr(cd_module, "make_asymptotic_normal_cd", flaky)
    monkeypatch.setattr(simulate, "BLOCK_FLOATS", 20 * 30)
    with pytest.raises(ValueError, match=r"rep=53 with seed \(7, 53, 0\).*injected failure"):
        run_experiment(spec)


@pytest.mark.parametrize("threads", [1, 4])
def test_bivariate_failure_names_replication(monkeypatch, threads):
    spec = ExperimentSpec(
        model="bivariate-normal", true_mean=(0.0, 0.0),
        region=Rectangle(lower=[-1, -4], upper=[0, 4]),
        n=40, reps=50, method="multi", depth="mahalanobis", boot_m=100, seed=3, cov=PART2_COV,
    )
    real = simulate.bootstrap_cloud
    # replication 31's bootstrap generator, before its first draw
    target = np.random.default_rng([3, 31, 1]).bit_generator.state

    def flaky(data, reps, seed):
        if seed.bit_generator.state == target:
            raise ValueError("injected failure")
        return real(data, reps, seed)

    monkeypatch.setattr(simulate, "bootstrap_cloud", flaky)
    with pytest.raises(ValueError, match=r"rep=31 with seed \(3, 31, 0\).*injected failure"):
        run_experiment(spec, threads=threads)


def test_bivariate_clouds_come_from_the_batched_bootstrap_streams(monkeypatch):
    # each replication's cloud is the one default_rng([seed, r, 1]) resamples,
    # bit for bit, and records that seed tuple
    spec = ExperimentSpec(
        model="bivariate-normal", true_mean=(0.0, 0.0),
        region=Rectangle(lower=[-1, -4], upper=[0, 4]),
        n=30, reps=50, method="multi", boot_m=100, seed=11, cov=PART2_COV,
    )
    clouds = []
    real = simulate.MULTI_METHODS["multi"]

    def recording(cloud, kind, region):
        clouds.append(cloud)
        return real(cloud, kind, region)

    monkeypatch.setitem(simulate.MULTI_METHODS, "multi", recording)
    run_experiment(spec)
    chol = np.linalg.cholesky(PART2_COV)
    for r, cloud in enumerate(clouds):
        data = spec.true_mean + np.random.default_rng([11, r, 0]).standard_normal((30, 2)) @ chol.T
        want = bootstrap_cloud(data, 100, seed=[11, r, 1])
        assert cloud.seed == (11, r, 1) == want.seed
        assert np.array_equal(cloud.points, want.points)
    assert len(clouds) == 50
