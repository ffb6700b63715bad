"""Golden sha256 pins of the deterministic outputs.

A refactor must leave every ``grow`` stream, ``--trace`` log, ``bench`` CSV
and signing choice byte-identical for a fixed ``(d, lift seed)``.  d = 10 is
left out: its exhaustive signing search still breaks ties on floats, so its
choice depends on LAPACK rounding.
"""

import hashlib

import pytest

from expanderseq import cli
from expanderseq.grower import _cycle_seed, bl_expander
from expanderseq.lifts import default_lambda_budget, find_good_signing, two_lift
from expanderseq.multigraph import graphs_equal

CASES = [(d, seed) for d in (6, 8, 12) for seed in (1, 2)]

# (d, seed) -> sha256 of the grow --n-to stream through cycle 2, its --trace
# file, and the bench --cycles 2 CSV.  At d = 6 and 8 the lift seed first
# matters in cycle 2: smaller bases are searched exhaustively.
GOLDEN = {
    (6, 1): (
        "aa9fc990157b06d6f3db086dc4dbb29293222a886405b77fb656b40cb4dc0ab9",
        "d634205330805bcc2fddd61079a2015b954dfd1659673d4f73f0e6a9d97b870b",
        "d863cde253245418d3b964df3ccfbe03d2fee2a5916b89eab01c0d03332992a3",
    ),
    (6, 2): (
        "1394da2369b12251ba04e2dbc767b12e345e2a96d11c3fa7a36daae19e21d5d4",
        "bf73d4038f6320cc624a73c9a149c2718f9331051e969b31a398682bfe338aaa",
        "d863cde253245418d3b964df3ccfbe03d2fee2a5916b89eab01c0d03332992a3",
    ),
    (8, 1): (
        "8418cce9e62f1dd895bf147741ed4813efffe0e76be569fb7d0c7e6499466e81",
        "c697054cc9137a446d75c49233804572d34bf971407ea9070e508c4dfe9ed5f5",
        "df4401e2f939c0f243989c17d668fffb7770f83b7663c0a78dbf0a9819571b7f",
    ),
    (8, 2): (
        "0cc21884a6c99c1d46f1845ebc122d0c93e0569b866a4edd161c7335fff9c9de",
        "3e25da6f96251b5c9c8e815d96bad85d4ed1934baaf0636855457a9fe2e763af",
        "df4401e2f939c0f243989c17d668fffb7770f83b7663c0a78dbf0a9819571b7f",
    ),
    (12, 1): (
        "2963892d439ab5e686f763cc7bd00b2a79c293d96f2e61dfec84dda89247ab5b",
        "4ac6805546a89d27fdc4e687dc698d94018cabe164cdc9533715e945b52431f3",
        "9c6cdcbf174213e8c444886524b3eac1fb0aef535ac474271308b42fd345f718",
    ),
    (12, 2): (
        "d6f5fa98687eee244db9c8c5e0566dbed04b84bd91755efe4c1002ff0f106b7f",
        "10cb5ee7fa8204f5a085cc289f182db268e1aa58480a8db28bf711c122ebcdba",
        "9c6cdcbf174213e8c444886524b3eac1fb0aef535ac474271308b42fd345f718",
    ),
}

# (d, seed) -> the signing code chosen in cycles 0, 1, 2, ...  Seed 1 runs on
# to cycle 4, where the random search meets 32- to 112-vertex bases.
SIGNING_CODES = {
    (6, 1): (1, 20, 5622719, 185252189263111, 18161282071954028834539619569),
    (6, 2): (1, 20, 10692226),
    (8, 1): (
        13,
        1394,
        706574592582,
        731545296558734073447639,
        643271652463803482995112324242594983492562842470,
    ),
    (8, 2): (13, 1394, 350453452324),
    (12, 1): (
        35608,
        1321124341427,
        17309895803682917337808199,
        71353711984220920065417585368943711861951880747518,
        78899905573388755733559344664781615538170248144005990243778388926974175751919216695130923322245247625,
    ),
    (12, 2): (809963, 1387241433415, 15152613455768600219292766),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(capsys, *argv: str) -> str:
    capsys.readouterr()
    assert cli.main(list(argv)) == cli.EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("d, seed", CASES)
def test_grow_trace_bench_golden(d, seed, capsys, tmp_path):
    base = d // 2 + 1
    trace = tmp_path / "trace.json"
    grow = _cli_stdout(
        capsys, "grow", "--d", str(d), "--n", str(base), "--n-to", str(8 * base),
        "--lift-seed", str(seed), "--trace", str(trace),
    )
    bench = _cli_stdout(
        capsys, "bench", "--d", str(d), "--cycles", "2", "--lift-seed", str(seed)
    )
    assert (_sha(grow), _sha(trace.read_text()), _sha(bench)) == GOLDEN[d, seed]


@pytest.mark.parametrize("d, seed", CASES)
def test_signing_codes_golden(d, seed):
    codes = []
    for i in range(len(SIGNING_CODES[d, seed])):
        g_star = bl_expander(d, i, seed)
        base = g_star.replace(weights=dict.fromkeys(g_star.weights, 1))
        code = find_good_signing(
            base, default_lambda_budget(d), seed=_cycle_seed(seed, i)
        )
        # the pinned code is the one the sequence lifted by
        lifted = two_lift(base, code)
        doubled = lifted.replace(weights=dict.fromkeys(lifted.weights, 2))
        assert graphs_equal(doubled, bl_expander(d, i + 1, seed))
        codes.append(code)
    assert tuple(codes) == SIGNING_CODES[d, seed]
