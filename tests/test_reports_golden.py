"""Byte-level guard on the command-line reports.

Each README command (plus ``depth --l``, ``ext --module``, ``verify phi``
and ``verify theta`` at windows 8 and 7, where the induced maps' products
group many words, ``verify phi`` at window 10, where the lifter's maps
are 1024 wide and kept in entry form, and four commands on a second factor
tabulated to a lower cap than the first) and the bundled suite run
in-process through ``cli.main``.  The SHA-256 of the ``--out`` file,
the exit code and the SHA-256 of stdout (without the wall-time and
"report written" lines, which vary per run) must equal the digests
recorded below.  A change that alters any report byte fails here.
"""

import hashlib
import os

import pytest

from fiberres.cli import main

MANIFESTS = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")

# name -> (argv with manifest file names, exit code, --out sha256, stdout sha256)
GOLDEN = {
    "algebra": (
        "algebra --algebra s_x3.json", 0,
        "54f83b4c270c35919a03593db4d0df8091017981c7b3940e12458a7616623f9c",
        "cb927653071b1372cb026e55569d143e3a960a14a4825e6eb8f27b17fb0f87d8"),
    "fiber": (
        "fiber --s s_x2.json --t t_y2.json", 0,
        "402dc258d62f14b52d3fe0162cb009f8fe63b77b0da52198ed2331c58eb4a163",
        "592a339fe9dd4f38a1e7456fe401b9aab5e2aa086139b0d7b2fd90241b0c396d"),
    "resolve": (
        "resolve --algebra r_square_zero.json --module m_k.json --hmax 6", 0,
        "330d27ce202862d422a6a1ebd2196e500bbf64d7bbae7c6763a15f993f24639e",
        "499ca9d1574a1d24068efdb46ca1e9830ce2c40d62785dcb93f359855d32bff0"),
    "poincare": (
        "poincare --s s_x3.json --t t_y2.json --m m_kx2.json --hmax 6", 0,
        "eda0f9e0f01f58233dbb5815b685abf78b8777d3c634120a7312560b95b75712",
        "0dbf487a1d138b19577535ca4304a4d15f3c8041ae473b2028378f3545f2d973"),
    "wordres": (
        "wordres --s s_x3.json --t t_y2.json --m m_k.json --hmax 5 --verify", 0,
        "05b23a8e0ed88f46b6797cf763515e78f7d98092be8a6911f505984e2b728f0a",
        "c5b5a2052800cc7c35e6b36d2903bab84f19e3933a878718b3203e8463c52d84"),
    "ext": (
        "ext --algebra r_square_zero.json --imax 5", 0,
        "7b12215f83c7404f3247822d10e9e6b18d5a46e8b776803fef7108f793eb24c3",
        "7bc12606aa0c51ac0f0b4397cd6c4ddccef93ba750150637e7ebcbb1004f1c78"),
    "ext-module": (
        "ext --algebra s_x3.json --module m_kx2.json --imax 5", 0,
        "8b273a993c2e691c9bca94681af6d4768f0f13c0b00e1841cc9abf93833f8689",
        "32ad3d4b58d4ce9bde60a508e7a9e85e2ab29505fd42bec7f7a6cdfa691e59da"),
    "verify-phi": (
        "verify phi --s s_x2.json --t t_y2.json --window 5", 0,
        "8a4231490d5ffc57c26ead1fc336cbbc200ff79121e6c768925c15ed8ea2f4ea",
        "58ea04407b3effdd9feaf55a40f21906cfcf99b18621108e4791380ed302578b"),
    "verify-phi-8": (
        "verify phi --s s_x2.json --t t_y2.json --window 8", 0,
        "fa39a29565cc228be91536987b87f9949a3efffe5f053565793da3a76b71ab17",
        "73093d66e6b56bc1814ff24e3bdcc2984db3d0e3c7b1be25699728f51c97ed52"),
    # window 10: the 1024-wide maps take the entry-form right-hand sides
    # and the entry-form kept eliminations
    "verify-phi-10": (
        "verify phi --s s_x2.json --t t_y2.json --window 10", 0,
        "cf04f0aeaed5e19d308017d01364dd8f294307bf70e099bdd5c861c8a2cbc06d",
        "c14b891861f7949d67491d9dd22bf08259aafe09fe24421580002eb90a6bf41d"),
    "verify-theta": (
        "verify theta --s s_x3.json --t t_y2.json --m m_kx2.json --window 5", 0,
        "06462e2a01b23604c027cc16d39b8d43a647ba2a3af9ec3ab57040851eea69b7",
        "8071f1700b55fb2a863aa4516dcc5b103c8b4c2c5abac47fcd771a73e5bdb796"),
    "verify-theta-7": (
        "verify theta --s s_x3.json --t t_y2.json --m m_kx2.json --window 7", 0,
        "dddb19091c90bd6e2eefc19ba5ad001079a8068bf0efeca02a2724ef1997e5cd",
        "914429eb1d422f96f5f1af1ac947b5c186193fbe4305dc016aa679401a2f7689"),
    "koszul": (
        "koszul --algebra s_x3.json --imax 5", 0,
        "55440bc334ea36f543858200ad5c2b72d3187ad7ccf91854b3008816c1cbe998",
        "7797d561beac1faf5bdfccd064a3390369b24e702f777c73a94aec329c4f12ca"),
    "fiber-module": (
        "fiber-module --s s_x2.json --t t_y2.json --m m_free.json "
        "--n m_free.json --hmax 6", 0,
        "80f84e0d893a609ab657dcfbcdddfbafbfaac0970ed0c8f060a024549b121b02",
        "bb4b1cdc5569af31fdc985a47c3e445ed6cd89bc0302814476c4b752304e7d62"),
    "syzygy-split": (
        "syzygy-split --r r_square_zero.json --l l_line.json --hmax 6", 0,
        "c0e1c62ec00626813866c626871ae1fc88093d00b46828d4d657271ced56523b",
        "fb89506e463fe35281dcb9bba045fe282d6f5fbb99fb865b150bfaa787caa4b9"),
    "depth": (
        "depth --r r_square_zero.json --m m_k.json --hmax 6 --jmax 2", 0,
        "a640ee082cdb8e887ee77ef80c03c820f171bdd25779fe7f4e1a0c1a14c503b8",
        "530a216df1c11ebaca38df20235d0accead75efb8dc7efd00be5c35122591362"),
    "depth-l": (
        "depth --r r_square_zero.json --l l_line.json --hmax 6", 0,
        "a787998d25e332a8de0718c875c7cc8d72368c28dc0b328565b146b3ea67f9ee",
        "c7bee59ee06b08dca8b97ab42a04f8cab87bfe0e55a7b52d3313c958f82d2cfd"),
    # the second factor tabulated to 8, below the first factor's 12: the
    # factors are resolved in R's window, not at their own caps (the
    # poincare row's exit 2 is a window that cuts off generators)
    "poincare-cap8": (
        "poincare --s s_x3.json --t t_y2_cap8.json --m m_kx2.json --hmax 6", 2,
        "8362a238b3f85c5bfe98ca6e6e354e64eca70627159499acc7df9f697403de2f",
        "b3ceaefa8b69343958a1f2bf1df718c97a29c44fc5d5ab097a737f503d273ffd"),
    "wordres-cap8": (
        "wordres --s s_x3.json --t t_y2_cap8.json --m m_k.json --hmax 5 --verify", 0,
        "ca5cea7f39b03ae86b709ce93af74be9363751591fdadee98c246bce90f83d1d",
        "e04a3e7afa31edf1ead78e49738d0c42271408e9cb3716fef22fd34a07567b4f"),
    "verify-phi-cap8": (
        "verify phi --s s_x3.json --t t_y2_cap8.json --window 5", 0,
        "ba5c098c6a1a5df6a1607d98921613abf42f31c8cbdc4423e200876e42827b02",
        "064fe99872dd914eb268ce5f90a600ed2f843555694f503d5895e383a85ca4af"),
    "fiber-module-cap8": (
        "fiber-module --s s_x3.json --t t_y2_cap8.json --m m_free.json "
        "--n m_free.json --hmax 6", 0,
        "d602b5d034b0c4e0aa62d7814f1831cacbdc155c4e9afcea18c9b343676f26e0",
        "3508b6ade077ee5beec9d60f0e255924395b52a38f34f9fe5f0e7115907ad0e2"),
    "suite": (
        "suite --manifest suite.json", 0,
        "2c27906314e46c84e90ec10575e61e6b2efde46c3bb310fbb9cf0e285abafa3b",
        "d6bf018e4e734a4c1a6c5dd6fbfcafdd5177dac55147a002e63b7bbd2803ff38"),
}

VARYING = ("wall time:", "report written to")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_recorded_digest(name, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.delenv("FIBERRES_CHAR", raising=False)
    command, code, out_digest, stdout_digest = GOLDEN[name]
    argv = [os.path.join(MANIFESTS, a) if a.endswith(".json") else a
            for a in command.split()]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert sha256(out.read_bytes()) == out_digest
    stdout = "".join(line for line in
                     capsys.readouterr().out.splitlines(keepends=True)
                     if not line.startswith(VARYING))
    assert sha256(stdout.encode()) == stdout_digest
