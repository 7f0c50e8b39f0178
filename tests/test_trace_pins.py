"""Behaviour pin: SHA-256 digests of `Trace.to_text()` for a fixed scenario set,
and of `View.to_text()` for three observers of some of them.

Every trace is a pure function of its scenario, so an engine refactor or
speedup that keeps behaviour must keep these digests. A change that alters
the RNG draw order or any recorded field has to update them and say why.

New pins are generated on the commit before the change they guard:

    PYTHONPATH=src python tests/test_trace_pins.py [NAME ...]

prints the trace digest of every `SCENARIOS` entry and the view digests of
every `VIEW_PINS` entry, or the digests of only the named entries (view
digests for those with at least 13 processors), as lines to paste into
`PINS` and `VIEW_PINS`; it never rewrites either.
"""

import dataclasses
import hashlib
import sys

import pytest

from mobyz import (
    RandomizedControl,
    Scenario,
    ScheduledControl,
    Strategy,
    Value,
    complete_minus_matching,
    complete_network,
    cut_set_pair,
    cycle_network,
    five_set_pair,
    flood_scheme,
    lift,
    make_two_clique_network,
    run,
    two_round_scheme,
    view_of,
)
from mobyz.adversary import CounterfactualBehavior
from mobyz.protocol import ProtocolParams

ZERO, ONE = Value.plain(0), Value.plain(1)


def _bare_random(n, m, seed, level, alphabet=2):
    return Scenario(
        network=complete_network(n),
        m=m,
        source_value=ONE if alphabet > 1 else ZERO,
        strategy=RandomizedControl(),
        alphabet_size=alphabet,
        seed=seed,
        trace_level=level,
    )


def _bare_counterfactual(level):
    # two liars per round replaying the source-0 world, sliding so the pivot
    # and the source are each controlled in some rounds
    n, m = 13, 2
    schedule = {r: {(r % n) + 1, ((r + 5) % n) + 1} for r in range(1, 2 * n + 1)}
    return Scenario(
        network=complete_network(n),
        m=m,
        source_value=ONE,
        strategy=ScheduledControl(schedule, CounterfactualBehavior(ZERO)),
        seed=1,
        trace_level=level,
    )


def _lifted_two_round():
    g = complete_minus_matching(13, 6)
    return Scenario(
        network=g,
        m=1,
        source_value=ONE,
        strategy=RandomizedControl(),
        mode="lifted",
        lifted=lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1)),
        seed=7,
        trace_level="full",
    )


def _lifted_states(g, m, scheme, seed, alphabet=2):
    return Scenario(
        network=g,
        m=m,
        source_value=ONE,
        strategy=RandomizedControl(),
        mode="lifted",
        lifted=lift(scheme, ProtocolParams(n=g.n, m=m, alphabet_size=alphabet)),
        alphabet_size=alphabet,
        seed=seed,
        trace_level="states",
    )


def _lifted_full(g, m, scheme, seed, alphabet=2):
    return dataclasses.replace(_lifted_states(g, m, scheme, seed, alphabet), trace_level="full")


def _lifted_round_one(g, scheme, schedule, seed):
    """A full lifted trace with random lies from the processors `schedule`
    controls in logical round 1, and none after it."""
    return dataclasses.replace(
        _lifted_full(g, 1, scheme, seed), strategy=ScheduledControl(schedule, Strategy())
    )


def _lifted_two_round_states(g, m, seed):
    return _lifted_states(g, m, two_round_scheme(g, m), seed)


def _five_set(which):
    pair = five_set_pair(n=5, m=1)
    return pair.scenario_a if which == "a" else pair.scenario_b


def _cut_set(which):
    pair = cut_set_pair(make_two_clique_network(4, 4), 1, [9, 10, 11, 12], observer=5, m=1)
    return pair.scenario_a if which == "a" else pair.scenario_b


def _relay_states(pair, which):
    scenario = pair.scenario_a if which == "a" else pair.scenario_b
    return dataclasses.replace(scenario, trace_level="states")


def _relay_cut_set_12_8(which):
    pair = cut_set_pair(make_two_clique_network(12, 8), 1, range(25, 33), observer=13, m=2)
    return pair.scenario_a if which == "a" else pair.scenario_b


def _relay_random(g=None, m=1, seed=3, level="states"):
    return Scenario(
        network=make_two_clique_network(4, 4) if g is None else g,
        m=m,
        source_value=ONE,
        strategy=RandomizedControl(),
        mode="relay",
        seed=seed,
        trace_level=level,
    )


SCENARIOS = {
    "bare-7-random-states": lambda: _bare_random(7, 1, 3, "states"),
    "bare-7-random-full": lambda: _bare_random(7, 1, 3, "full"),
    "bare-13-random-states": lambda: _bare_random(13, 2, 11, "states"),
    "bare-13-random-full": lambda: _bare_random(13, 2, 11, "full"),
    "bare-25-random-states": lambda: _bare_random(25, 4, 5, "states"),
    "bare-25-random-full": lambda: _bare_random(25, 4, 5, "full"),
    # receiver classes collide: one liar among 48 honest receivers
    "bare-49-random-states": lambda: _bare_random(49, 1, 1, "states"),
    # n = 6m+1 with the most forged senders, over three symbols
    "bare-43-alphabet-3-random-states": lambda: _bare_random(43, 7, 2, "states", 3),
    # random tables of 3, 5 and 8 entries (one, three and four random bits;
    # 8 is the exact power of two)
    "bare-13-alphabet-1-random-states": lambda: _bare_random(13, 2, 4, "states", 1),
    "bare-13-alphabet-3-random-states": lambda: _bare_random(13, 2, 4, "states", 3),
    "bare-13-alphabet-6-random-states": lambda: _bare_random(13, 2, 4, "states", 6),
    "bare-13-alphabet-6-random-full": lambda: _bare_random(13, 2, 4, "full", 6),
    "bare-13-counterfactual-states": lambda: _bare_counterfactual("states"),
    "bare-13-counterfactual-full": lambda: _bare_counterfactual("full"),
    "lifted-two-round-13-full": _lifted_two_round,
    "lifted-two-round-complete-13-m2-full": lambda: _lifted_full(
        complete_network(13), 2, two_round_scheme(complete_network(13), 2), 5),
    "lifted-flood-two-clique-5-9-full": lambda: _lifted_full(
        make_two_clique_network(5, 9), 1, flood_scheme(make_two_clique_network(5, 9), 1, 9), 3),
    # the source in round 1, then relay 4 as it holds and receives in round T
    "lifted-two-round-cmm-13-round-one-full": lambda: _lifted_round_one(
        complete_minus_matching(13, 6), two_round_scheme(complete_minus_matching(13, 6), 1),
        {1: {1}, 2: {4}}, 4),
    # T=3: relay 6, then the source as it injects again, then receiver 12
    "lifted-flood-two-clique-5-9-round-one-full": lambda: _lifted_round_one(
        make_two_clique_network(5, 9), flood_scheme(make_two_clique_network(5, 9), 1, 9),
        {1: {6}, 2: {1}, 3: {12}}, 4),
    "lifted-two-round-cmm-13-states": lambda: _lifted_two_round_states(
        complete_minus_matching(13, 6), 1, 7),
    "lifted-two-round-cmm-13-alphabet-3-states": lambda: _lifted_states(
        complete_minus_matching(13, 6), 1, two_round_scheme(complete_minus_matching(13, 6), 1),
        7, 3),
    "lifted-two-round-cmm-13-alphabet-6-full": lambda: _lifted_full(
        complete_minus_matching(13, 6), 1, two_round_scheme(complete_minus_matching(13, 6), 1),
        7, 6),
    "lifted-two-round-cmm-19-states": lambda: _lifted_two_round_states(
        complete_minus_matching(19, 9), 1, 2),
    "lifted-two-round-complete-13-m2-states": lambda: _lifted_two_round_states(
        complete_network(13), 2, 5),
    "lifted-flood-two-clique-5-9-states": lambda: _lifted_states(
        make_two_clique_network(5, 9), 1, flood_scheme(make_two_clique_network(5, 9), 1, 9), 3),
    "five-set-5-1-a": lambda: _five_set("a"),
    "five-set-5-1-b": lambda: _five_set("b"),
    "cut-set-two-clique-4-4-a": lambda: _cut_set("a"),
    "cut-set-two-clique-4-4-b": lambda: _cut_set("b"),
    "relay-five-set-15-3-a-states": lambda: _relay_states(five_set_pair(15, 3), "a"),
    "relay-five-set-15-3-b-states": lambda: _relay_states(five_set_pair(15, 3), "b"),
    "relay-five-set-15-3-a-full": lambda: five_set_pair(15, 3).scenario_a,
    "relay-five-set-15-3-b-full": lambda: five_set_pair(15, 3).scenario_b,
    "relay-five-set-15-3-swap-a-states": lambda: _relay_states(
        five_set_pair(15, 3, swap=True), "a"),
    "relay-five-set-15-3-swap-b-states": lambda: _relay_states(
        five_set_pair(15, 3, swap=True), "b"),
    "relay-cut-set-two-clique-12-8-a-states": lambda: _relay_states(cut_set_pair(
        make_two_clique_network(12, 8), 1, range(25, 33), observer=13, m=2), "a"),
    "relay-cut-set-two-clique-12-8-b-states": lambda: _relay_states(cut_set_pair(
        make_two_clique_network(12, 8), 1, range(25, 33), observer=13, m=2), "b"),
    "relay-cut-set-two-clique-12-8-a-full": lambda: _relay_cut_set_12_8("a"),
    "relay-cut-set-two-clique-12-8-b-full": lambda: _relay_cut_set_12_8("b"),
    "relay-random-two-clique-4-4-states": _relay_random,
    # sparse or two-clique graphs adopt over many rounds, and random rewrites
    # plant EMPTY highs on processors released later
    "relay-random-cycle-9-full": lambda: _relay_random(cycle_network(9), 1, 3, "full"),
    "relay-random-two-clique-12-8-m2-full": lambda: _relay_random(
        make_two_clique_network(12, 8), 2, 5, "full"),
}

# generated on the engine before bare rounds were switched to histograms
PINS = {
    "bare-13-counterfactual-full": "0e190590c0e8e55267d46fe7cc5924a2ce27ea7042ff1695c0e5980790d1d60b",
    "bare-13-counterfactual-states": "f0fd7e65e0ad0909b6dae6833b7c0c2f09b68d06ac16789baffdef372bac6f8b",
    "bare-13-random-full": "9c1f3408c2351fd21ad7846e5658fcddc42fe03e327289a419ec8b9bd4b23d11",
    "bare-13-random-states": "c61e8d295e8fc07b9ae6bdfff26e61d756e43ed108e515e4279c15661a2ac9b2",
    "bare-25-random-full": "4fe4c2fd4904b9fc18224e2d1c3ff860070eaba00d44ab3f6ab3c5dd1ced9180",
    "bare-25-random-states": "799f89859b98f1ea813a2e73bf89e2f67144aa776484b39cdd5e05614e99c90f",
    "bare-7-random-full": "07f63cd925a5655617f5f46c67f1e39e94a5073f9ffcf079331c4e87c106da40",
    "bare-7-random-states": "6c1bc314306a331535968c6db0de2e4c6da7ea334eb35222b2cd517516e23a41",
    "cut-set-two-clique-4-4-a": "533312c4d0991505c39d73b7cc7524dfcc21ce11b2a33c1637f44eb53678eab2",
    "cut-set-two-clique-4-4-b": "1c4f4d52c7f3516ce9865ac548c2766f5e1cd998f521a2ea25db0ce85e69b3db",
    "five-set-5-1-a": "1bda9a9f2a243a9d27d611541437e7e25ea3f8d33af4a5522e5d7e9d0a767131",
    "five-set-5-1-b": "2259211144afd3fc6161fb2d3e1a95e31ee0023f6fd4f2d6082c8a378ecee1a1",
    "lifted-two-round-13-full": "f6c7ce385eebb24297010c12f0d50165a8acaf12bd0706f7aff41407e9b614a0",
    # generated on the engine before states-level lifted runs left TransferRun
    "lifted-flood-two-clique-5-9-states": "b055af8bd9c9e34daa39e698531ad6cc67504ce399fae7ec71c18d19f4bca0e0",
    "lifted-two-round-cmm-13-states": "6429b617319643896eda28e585f21ce82c6b709c91927c74c6936beb5018a6a6",
    "lifted-two-round-cmm-19-states": "cc09e73e47d11a7061f287e77af10a037492fbfcbe93e9ce5f6d3957129b1410",
    "lifted-two-round-complete-13-m2-states": "f6ba6c6dbd34e7089e715a3e99bacff5a17152c1787636bf54e104730894a4b6",
    # generated on the engine before bare and relay rounds joined the lifted loop
    "relay-cut-set-two-clique-12-8-a-states": "29beb049451d3028baac22c3f785dd17f22c7af6c0d245b351f7be29a4056652",
    "relay-cut-set-two-clique-12-8-b-states": "381c5a8e8d9174a8b842f7632f7135bfd880e78911e385d26fa9b35faaa36350",
    "relay-five-set-15-3-a-states": "26a7fb08b5dc0968e5a5177ecd793234f7976e301228de2f05ba3f1b58228ed5",
    "relay-five-set-15-3-b-states": "0ddd168b72cc1d2bfe518702018d815e14ee9437025c2a69ebbed3eefc884531",
    "relay-five-set-15-3-swap-a-states": "26a7fb08b5dc0968e5a5177ecd793234f7976e301228de2f05ba3f1b58228ed5",
    "relay-five-set-15-3-swap-b-states": "5bf5f2edb325d24ff64e739cc9d17a77fe0b6ead3462dacf2cec2f2d77e5c996",
    "relay-random-two-clique-4-4-states": "060ce36a8204161792cbea6192a13020c352b2e207149bccfe758574851e6fdd",
    # generated on the engine before full-trace lifted runs left TransferRun
    "lifted-flood-two-clique-5-9-full": "38b9cd939441ca074acd74f6b1c1141c7d1cb58b576e4a458f033031751363a1",
    "lifted-two-round-complete-13-m2-full": "64d291584a260a7b24cc9caaf7a78fc75a26f2efdd4b0d8cf7e959de6c6053cc",
    # generated on the engine before honest receivers were updated by class
    # and random values were drawn from bit-indexed tables
    "bare-49-random-states": "a83b329f072991059d193900ea627cd21944a6eec9aa1751b7610e6a1b47f9b6",
    "bare-13-alphabet-1-random-states": "2de721228fa12201781d58a0896c396ddce84770bd34891eef2604c89b317db7",
    "bare-13-alphabet-3-random-states": "49dc76e5dab119c98f091e9de8d8c70b9655c58a06eb1778ca8faa303f917e87",
    "bare-13-alphabet-6-random-states": "48c56bd10fc250671f3dcf67bf14d44d07791dff3f3a669c1f30f4d6115e3491",
    "lifted-two-round-cmm-13-alphabet-3-states": "77af0695d9fd4c21a597c1caea813b5aff9e746156aea8984c319742a6182cde",
    # generated on the engine before traces and views had one writer
    "bare-13-alphabet-6-random-full": "4526a0853e4b1e4799be0a8901cc24da66a09a1b2d283537f5ef28c143303fb6",
    "lifted-two-round-cmm-13-alphabet-6-full": "eb10d040e2b197fb64a582792e8fc6d2074297f8cc1d0005876caa66f7d73269",
    "relay-cut-set-two-clique-12-8-a-full": "2ae33ffbf5c6be6a041456d0a3168ef49827ad9b790458c36dec3b35da5426de",
    "relay-cut-set-two-clique-12-8-b-full": "d682c8c52f46ad850224c6c6f88e10d9a9ad610b743e1837867501fc0ae8cd38",
    # generated on the engine before receivers out of the forgeries' reach
    # of every threshold were merged into one class
    "bare-43-alphabet-3-random-states": "3fbbbe7573444a418754f0731419d13ff9a358ada4a1974be159ab286db2c364",
    # generated on the engine before relay decode skipped the receivers that
    # had adopted a value
    "relay-random-cycle-9-full": "ee7862db53affdd2b35d46c01a1163a905e22bc1d496cadd720727725fd9f8b2",
    "relay-random-two-clique-12-8-m2-full": "c8fa61cb358452a0814625812c1abebfe8415782dbfefbe9a0d80f95f13835b6",
    # generated on the engine before direct rounds read a cached link table
    # and hop records became tuples
    "relay-five-set-15-3-a-full": "75e46ac2ed0d87b26166f908f03acb48a517abe53f135ace28b70b9e428afaa0",
    "relay-five-set-15-3-b-full": "f508d48aafeb0255df3230fbc8a27a823e8d637dbab34530494ce63be1d633e6",
    # generated on the engine before lifted round 1 had a copy index of its
    # own, when it filtered the every-sender index down to the source
    "lifted-two-round-cmm-13-round-one-full": "0878f1a84c0eafdab6721b6340a8ee3a7b7f5ea5643d66b25fdcad1b22c685d3",
    "lifted-flood-two-clique-5-9-round-one-full": "11b53e1dfa8437d4a31bf69bcfe7440883564dd8eeae0f7a8fdae64b1c854a39",
}


VIEW_OBSERVERS = (1, 10, 13)

# SCENARIOS entry -> the view digests of VIEW_OBSERVERS, in order; generated
# on the engine before traces and views had one writer
VIEW_PINS = {
    "bare-13-alphabet-6-random-full": (
        "f89a7a80253eeae97a3e518d4b1300067661b10d3ff661198839ea7160fbf681",
        "ed7ad41bc6571664ae730f23033e8152e19f70620aacf6c427f8b48ae65d1b5e",
        "966b5312c1bd3279dd4df7bee5785a713d91843350279988417a6aae1e962aa2",
    ),
    "bare-13-random-full": (
        "2155ce215a769d1e4924679c77d68c9076bf484035099113fa5758e9fa880e88",
        "430365e812475b33d9e5e3a658fb02221156b1837e67efa9cb8dd37da9b9ff46",
        "124774206015c3d365f1fdf48911cf9bcb2b331d3cea8e52101e791a46bfa6e4",
    ),
    "lifted-two-round-13-full": (
        "ba2292e05411cdff535ef9cf131b7418610e353e18dbd02cf4dd9b3b4b8d93ff",
        "f2a169e377564ba502d8184d51519d8203dc80087872496ac6f99e6083df8ba3",
        "2b10ac3219499b7a7ad2c3dbd69b3e92e24790963e7d60156169bf63f72c4009",
    ),
    "lifted-two-round-cmm-13-alphabet-6-full": (
        "54b3e7050229f23f21f1fee98527e708b02e000d507f682b9e43e7dc51b55ba5",
        "1cda1f2e0ebf82fec96d135fc6fd5d5cd11959d1afa81ca14d8094cdb24e48e5",
        "8012947973ca5c27643da25e47bbe9ce695d565beb12ed910a17fee2ad8b55e2",
    ),
    # observer 13 is the pair's observer: its two views are one text
    "relay-cut-set-two-clique-12-8-a-full": (
        "9f3b2d09cb0dfdee140eb4e11818e7d2fffa7c84ffb3f73d32867dce0dec4555",
        "e10ae957ca5a0b8dee135402cdadcafa7f9ca977ff79cd20b20c588ef829c350",
        "2c865593c7975b5d12b998202d96172bf296ba3758c18314a09e8d22e7cce5aa",
    ),
    "relay-cut-set-two-clique-12-8-b-full": (
        "c240d106d79c835a72d7a953a3f30af17fcce482b6a2c3f5499d4ce45c5c916d",
        "6e8ce03389a902adec98777b2d50c4d36892c83797a72a42f2021164d6ffa870",
        "2c865593c7975b5d12b998202d96172bf296ba3758c18314a09e8d22e7cce5aa",
    ),
    # generated on the engine before direct rounds read a cached link table;
    # 10 and 13 are observers of the pair, and 1 sees the same in both runs
    "relay-five-set-15-3-a-full": (
        "e84e67289f1ad5a46950ccb816ee04f03740d3343d7b18b7ff1160558c69f022",
        "564ed84e521dbb7a94cde7e8ca0b5999a09a9389ef26006d04b602dcb816b599",
        "4189ff512a02287d22e3e8de258119be16f71ae9a41b546a888ae4c10acf60fe",
    ),
    "relay-five-set-15-3-b-full": (
        "e84e67289f1ad5a46950ccb816ee04f03740d3343d7b18b7ff1160558c69f022",
        "564ed84e521dbb7a94cde7e8ca0b5999a09a9389ef26006d04b602dcb816b599",
        "4189ff512a02287d22e3e8de258119be16f71ae9a41b546a888ae4c10acf60fe",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(scenario) -> str:
    return _digest(run(scenario).to_text())


def view_digests(scenario) -> tuple:
    trace = run(scenario)
    return tuple(_digest(view_of(trace, p).to_text()) for p in VIEW_OBSERVERS)


def test_pin_set_is_complete():
    assert sorted(PINS) == sorted(SCENARIOS)
    assert set(VIEW_PINS) <= set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest_pinned(name):
    assert trace_digest(SCENARIOS[name]()) == PINS[name]


@pytest.mark.parametrize("name", sorted(VIEW_PINS))
def test_view_digests_pinned(name):
    assert view_digests(SCENARIOS[name]()) == VIEW_PINS[name]


def main(names) -> None:
    for name in names or SCENARIOS:
        print(f'    "{name}": "{trace_digest(SCENARIOS[name]())}",')
    for name in names or VIEW_PINS:
        scenario = SCENARIOS[name]()
        if scenario.n >= max(VIEW_OBSERVERS):  # smaller networks lack the observers
            print(f'    "{name}": {view_digests(scenario)!r},')


if __name__ == "__main__":
    main(sys.argv[1:])
