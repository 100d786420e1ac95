"""Golden output: the sha256 of every `gels` command in every format.

The CLI's text, JSON and CSV bytes are a contract (ROADMAP ground rules),
so a refactor of the CLI or of the numerics under it must leave each cell
below byte-identical. The fits pin every per-k log-likelihood bit for bit
through the repr of each float in the JSON and CSV output.

Determinism contract: the cells hold for the same numpy and OpenBLAS build
on the same CPU class. They were computed with numpy 2.4.6 and its bundled
scipy-openblas64 0.3.31 (DYNAMIC_ARCH), which picks its SkylakeX kernel on
the AVX-512 Xeon they were computed on. BLAS dot products and matrix-vector
products sum in a kernel-dependent order, so another kernel moves last bits:
with OPENBLAS_CORETYPE=Haswell, 15 of the 36 cells fail with no program
change. numpy's own AVX-512 loops (exp among them) round differently from
its other paths as well.

To re-pin after an intended change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and record the change in CHANGES.md.
"""

import hashlib
import io
import sys

import pytest

from gels.cli import main

TRIPLE = ["--alpha", "0.5", "--k", "1", "--gamma", "0.5"]
BEARING_FIT = ["--alpha", "7.7954", "--k", "27", "--gamma", "0.4063"]
# stdin for the "-" input: a second column read with a non-default delimiter
STDIN = "# id;hours\na;1.5\nb;2.25\nc;3.5\nd;2.75\ne;5.0\nf;1.75\ng;4.25\n"

INVOCATIONS = {
    "fit ball_bearings k0..30": ["fit", "--dataset", "ball_bearings", "--kmin", "0",
                                 "--kmax", "30"],
    "fit leukaemia level 0.9": ["fit", "--dataset", "leukaemia", "--level", "0.9"],
    "fit stdin column": ["fit", "-", "--column", "2", "--delimiter", ";", "--kmax", "3"],
    "compare ball_bearings k0..30": ["compare", "--dataset", "ball_bearings", "--kmin",
                                     "0", "--kmax", "30"],
    "compare strength_10mm k0..10": ["compare", "--dataset", "strength_10mm", "--kmax",
                                     "10"],
    "stats": ["stats", *TRIPLE],
    "quantile": ["quantile", *BEARING_FIT, "--p", "0.01,0.5,0.99"],
    "sample": ["sample", *TRIPLE, "--n", "200", "--seed", "7"],
    "simulate study I": ["simulate", "--study", "I", "--n", "2000", "--kmax", "3",
                         "--seed", "5"],
    "simulate x4": ["simulate", "--alpha", "1", "--k", "2", "--gamma", "1", "--n", "300",
                    "--kmin", "1", "--kmax", "2", "--seed", "6", "--replications", "4",
                    "--workers", "2"],
    "pdf-curve triple": ["pdf-curve", *TRIPLE, "--points", "25"],
    "pdf-curve fit and bins": ["pdf-curve", "--dataset", "leukaemia", "--kmax", "4",
                               "--bins", "6", "--points", "20"],
}
FORMATS = ("text", "json", "csv")

# (exit code, sha256 of stdout)
GOLDEN = {
    ('fit ball_bearings k0..30', 'text'): (0, '1e9fc2fb66419012150e92f622a16e71c15e7bb8dbebc13f5ee052287ebc17e4'),
    ('fit ball_bearings k0..30', 'json'): (0, '581dd02ef9a5054c2375262082e70a4ed640697bc934eb323599ed30e5eacbd9'),
    ('fit ball_bearings k0..30', 'csv'): (0, 'f7aadc7f0b9a796e2e6dbe13ff5d07be0801bb535d2196d622c0eec97f2c69d0'),
    ('fit leukaemia level 0.9', 'text'): (0, 'a09fae641154d1b3c7f9899b28335acbbef211316316ef083feacf49f2db8bf9'),
    ('fit leukaemia level 0.9', 'json'): (0, '90862737edaed6a9e01741061c3a937b84c74296d5569f7f985e50ff67953b1b'),
    ('fit leukaemia level 0.9', 'csv'): (0, 'f641a197ac7d7f129d68374f24c62c487e3d959bdb791e36271cef8624c4a24d'),
    ('fit stdin column', 'text'): (0, '2c8e4a83832f24337b8e725e91da890c8f4a0680eec34ad99b744cf75a464b16'),
    ('fit stdin column', 'json'): (0, '4a744e3265435d1f3da6dbc4e0610698251079a09be66cfd1c0fd333f09bdf0b'),
    ('fit stdin column', 'csv'): (0, 'c8eb5ee14f7b74ae9ccc017d3664d812e562a7d5f40f4f5be726de5749e68d3c'),
    ('compare ball_bearings k0..30', 'text'): (0, '3234f32632a370bf9be32cafc8691712c31dd01572bae52c8aee5539736c6df6'),
    ('compare ball_bearings k0..30', 'json'): (0, '2160d8fd40a9b1482d15af1705b4ce7803b23895ac4463d64ab4369c899ce7a0'),
    ('compare ball_bearings k0..30', 'csv'): (0, '6df0a4770abfccc45426033c805eab0b8c3ec056383a450c51b0d8a4eb142e73'),
    ('compare strength_10mm k0..10', 'text'): (0, 'c58b4212313e63f6628b06678c18e1dbbe352650c903356ff5aec20f94ae05ef'),
    ('compare strength_10mm k0..10', 'json'): (0, '13d6785b4a115d67b74c4a9476506184467c9861a63ebd6549ad8f8301c26365'),
    ('compare strength_10mm k0..10', 'csv'): (0, '0d9aa4feabeb44d24fb0bff57ed4971bd32c98bf7c7ccff86fc763cbf71df313'),
    ('stats', 'text'): (0, '5d5fd323762e79fbb959caba70afafdab7a33b71ce2f521616a957a6f36b15cf'),
    ('stats', 'json'): (0, '5af8a476777ce6c491a6779719c8395e7c7589083c7d9460a3cbf23eca923c0a'),
    ('stats', 'csv'): (0, 'db1bdf15b6f3a7a81bc99609685f00b056966831fa97f4d9d7fa0f1f3a18ddd0'),
    ('quantile', 'text'): (0, '637a6a37d65647a04a9be3a68f3ac4c759f08077784b8b4003609a14c5001671'),
    ('quantile', 'json'): (0, '80dd44d0eb9492061fe4a4e96f775ec733b1e625e538f828c899e0542e5a1fe6'),
    ('quantile', 'csv'): (0, 'ed34a0aa3ec819752b052ef2e5b686021a34dd56574a063215ef5af7280d0454'),
    ('sample', 'text'): (0, '3a85212b4daad89fb679fe52918b048ca39379f5cb05e7c1dbc0ed100ad611b9'),
    ('sample', 'json'): (0, 'fdcf87d10d181d94b390ec9786668dd974971369a90b8522acadca23a115978d'),
    ('sample', 'csv'): (0, 'd1728d6e3024ec38bca3e018ec01ca88a8bda792b7bd4d7f368b1fdc14fa11d4'),
    ('simulate study I', 'text'): (0, 'f86b3af393d5a27fac8816872325cae7d8469dd4f1931eecd931f67aa7216646'),
    ('simulate study I', 'json'): (0, '9ae072cecd44f7b53216997603552232be4ee64b8bdc51e877df81379f7721cf'),
    ('simulate study I', 'csv'): (0, '1fec8455ea2b062ae73c39bc173e1ca67ba5c50b337c918d453cffce3acc1c78'),
    ('simulate x4', 'text'): (0, 'd407ee720526400cc6f80e33ed4e73bc11bbdc642d3965d301843a3e9ca4651a'),
    ('simulate x4', 'json'): (0, '43a355608446b39fb35476d37a354599a1aac0ebf82e2bdc981a3f101086f81d'),
    ('simulate x4', 'csv'): (0, 'edaa937f859c1815d835f38873fd029c79b4e840843986ac6ecd2fb821fea708'),
    ('pdf-curve triple', 'text'): (0, '3ec796b0daa6a9f787a8c90a610007329e680935a0235b2aaa747db261995dc8'),
    ('pdf-curve triple', 'json'): (0, '4a80af948cdffdbe95fdc3ad29aa16743482fe0feb3b651b8ad462fdde545cb6'),
    ('pdf-curve triple', 'csv'): (0, '5a6c3c84cb74780a6cffa74e671d143251aa4e29189c631a9c7eed2926921a58'),
    ('pdf-curve fit and bins', 'text'): (0, '1f43e6c00eb5e16425dc245dcde09cda808ed6172290f5a0fae890901ba90d63'),
    ('pdf-curve fit and bins', 'json'): (0, '12520a271b060fdbab0f9f8de849906bd850d084166a1dd28a7656c413788f97'),
    ('pdf-curve fit and bins', 'csv'): (0, 'c1cd7ba1a64c0ccb60cc8e42bdc68c0ba809caddb1bc780f8fd6460269d69596'),
}


def digest(label, fmt):
    """(exit code, sha256 of stdout) of one invocation in one format."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(STDIN), out
    try:
        rc = main(INVOCATIONS[label] + ["--format", fmt])
    finally:
        sys.stdin, sys.stdout = saved
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("label", INVOCATIONS)
def test_output_bytes_unchanged(label, fmt, capsys):
    assert digest(label, fmt) == GOLDEN[label, fmt]
    assert capsys.readouterr().err == ""


if __name__ == "__main__":
    for label in INVOCATIONS:
        for fmt in FORMATS:
            print(f"    ({label!r}, {fmt!r}): {digest(label, fmt)!r},")
