"""Golden outputs: the canonical JSON of every CLI suite, pinned by sha256.

Each case runs one suite at a small size with its default seed; chart
transitions are also pinned past the CLI cap, as library calls.  A refactor
that changes no behaviour leaves every hash in place; a change that alters a
report on purpose updates the hash here and says why.
"""

import hashlib

import pytest

from tqps.classical_cpn import transition_agreement
from tqps.cli import main
from tqps.util import canonical_json

GOLDEN = [
    (["fdl", "enumerate", "--generators", "4"], 0,
     "10958729f40d195bba262f3b0b3fbffbc91e3cd0e446093223e3a2a49299cfac"),
    (["birkhoff", "roundtrip", "--poset-size", "7"], 0,
     "bf52a2eb5eb33b3a341b47a6739e989560525ea7fa443e2d4a47750668b0f53d"),
    (["birkhoff", "roundtrip", "--poset-size", "12"], 0,
     "5b57f6e135dcd025940e8fa83f843770daef66341e8e5d127f5f87cee3d4297a"),
    (["verify", "psi", "--n", "3"], 0,
     "9023e76db8caebbdf76064b70308741b0927d590c025fad82481372114a28579"),
    (["verify", "cocycle", "--n", "3"], 0,
     "e976827ca55ef24435af1874108a0c1b049a73a941fe2478a0db214bf465b9dd"),
    (["verify", "kernel-images", "--n", "3"], 0,
     "58711694f6a028c2de4ed0d4765308e1bce67afc80d42b3282999532510d9acf"),
    (["verify", "freeness", "--n", "2"], 0,
     "c5e607ed1b8c7e671af1fa1e5426c23ff4fd1bbc227471c289c719309433387f"),
    (["verify", "freeness", "--n", "3", "--samples", "5"], 0,
     "297bffcc9a0c260e38f2e6b380b29baf83212a11a31a1990a473e76bf5e6d481"),
    (["verify", "freeness", "--n", "4", "--samples", "1"], 0,
     "36c02a3b6910be00447f8ba799cf0a2fad8d106bcdef4323f9f4865a759755a1"),
    (["verify", "freeness", "--n", "4"], 0,
     "885a5974cabdc32c1b3642f8efadb4187d14edeb0cc2f231063d088e8c2cd1f8"),
    (["verify", "freeness", "--n", "2", "--generator-map", "1=0"], 1,
     "2716bf75614b63d3341b97cc2a34ef5b55647c24fb50eef90655375b5b6714c8"),
    (["classical", "lattice", "--n", "3"], 0,
     "73185dcd4f104256c2a8f7a736754948fc3b45fa82967f546cc6d4faa4984a77"),
    (["classical", "transitions", "--n", "3"], 0,
     "456d013db75887a1246d68a3e34ce61a5c765cdf6fb366c14a0ade8668aa51fd"),
    (["export", "hasse", "--target", "fdl", "--generators", "3"], 0,
     "d31a40ac21fcbe4e65c09424e1431ca5b972510b3c86bb01a1a43d2aa642e87c"),
    (["export", "hasse", "--target", "classical", "--n", "2"], 0,
     "f19b33c9000535fe8588862a75e84982ee9c1ee4278b26e6045f58ffdda28d0a"),
    (["export", "hasse", "--target", "kernels", "--n", "2"], 0,
     "eab2f47cd979d82e8e87730160271b4a6d058b3bd5cb3bcd75f5ebd4f5e88371"),
    (["export", "hasse", "--target", "fdl", "--generators", "4"], 0,
     "93f6a3d0be6a58278a2f396b63373eaf8a9323dfb62e031a1ec54563266a02a8"),
    (["export", "hasse", "--target", "kernels", "--n", "3"], 0,
     "9ffbf81c3dac4cc292b5ab47458f2e2c9678595216decd0e6d9c71e7092ba0ba"),
    (["classical", "lattice", "--n", "4"], 0,
     "8f3493f794bfd872cf15f177480276717338787a312e3e4769c3d4e79970d090"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_canonical_json_is_unchanged(capsys, argv, code, digest):
    assert main(argv + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The CLI caps classical transitions at n = 3; the float operations of the
# chart layer are pinned past that cap through the library call.
TRANSITIONS_PAST_CAP = [
    (4, "d66b5fa1387ef188d1b2028feb9751781d5c7955e7dec39251ee84328a73328c"),
    (5, "3edde29d8efba10c9e38894e59c348a0c2ba438cbda86eef0ae496b190aeed6a"),
]


@pytest.mark.parametrize("n, digest", TRANSITIONS_PAST_CAP, ids=["n=4", "n=5"])
def test_transition_agreement_past_the_cli_cap_is_unchanged(n, digest):
    report = transition_agreement(n, trials=50, seed=7)
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == digest
