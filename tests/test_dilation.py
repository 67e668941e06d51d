import contextlib
import io

import numpy as np
import pytest

from pavekit.cli import main
from pavekit.core import (
    CHECK_TOL,
    ContractViolation,
    gen_random_unit_frame,
    matrix_from_json,
    matrix_to_json,
    numeric_rank,
)
from pavekit.dilation import dilate_operator, naimark_dilate
from pavekit.frames import gram_matrix, parseval_normalize
from pavekit.reports import canonical_json, verify


def _parseval(n, m, seed, field="real"):
    return parseval_normalize(gen_random_unit_frame(n, m, seed, field))


def _family(original, dil):
    """F = [input | added_vectors], rebuilt from a dilation's results."""
    added = dil["added_vectors"]
    return original if added is None else \
        np.concatenate([original, matrix_from_json(added)], axis=1)


def _projection(original, dil):
    """The projection P = F* F and the embedding F* of a dilation, built
    here from the input and the stored completion, not by the package."""
    emb = _family(original, dil).conj().T
    return emb @ emb.conj().T, emb


def test_naimark_roundtrip_seeded():
    for seed in range(10):
        fr = _parseval(3, 7, seed, field="complex" if seed % 2 else "real")
        dil = naimark_dilate(fr)
        assert dil["added_vectors"] is None
        p, emb = _projection(fr.synthesis, dil)
        assert dil["ambient_dim"] == fr.M
        assert np.abs(p @ p - p).max() < 1e-9
        assert np.abs(p - p.conj().T).max() < 1e-10
        assert numeric_rank(p) == fr.n
        assert abs(np.trace(p).real - fr.n) < 1e-8
        # P e_i lands exactly on the embedded i-th vector
        for i in range(fr.M):
            assert np.abs(p[:, i] - emb @ fr.synthesis[:, i]).max() < 1e-9
        # the embedding is an isometry
        assert np.abs(emb.conj().T @ emb - np.eye(fr.n)).max() < 1e-9


def test_naimark_rejects_non_parseval():
    with pytest.raises(ContractViolation):
        naimark_dilate(gen_random_unit_frame(3, 7, 0))


def test_dilate_identity_operator():
    t = np.eye(3)
    dil = dilate_operator(t)
    assert dil["ambient_dim"] == 5         # 2n - 1
    want = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    assert np.abs(_projection(t, dil)[0] - want).max() < 1e-8


def test_dilate_rank_deficient_norm_one():
    t = np.diag([1.0, 0.0])
    dil = dilate_operator(t)
    assert dil["ambient_dim"] == 3
    assert numeric_rank(_projection(t, dil)[0]) == 2
    # completion supplies the missing coordinate direction
    added = matrix_from_json(dil["added_vectors"])
    assert np.abs(np.abs(added) - np.array([[0.0], [1.0]])).max() < 1e-9


def test_dilate_operator_contract_seeded():
    rng = np.random.default_rng(0)
    for trial in range(15):
        n = int(rng.integers(2, 6))
        t = rng.standard_normal((n, n))
        nrm = np.linalg.norm(t, 2)
        if trial % 2 == 0:
            t = t / nrm                     # exactly norm one
            expect = 2 * n - 1
        else:
            t = t / (nrm * 1.5)             # strict contraction
            expect = 2 * n
        dil = dilate_operator(t)
        assert dil["ambient_dim"] == expect
        p, emb = _projection(t, dil)
        assert np.abs(p @ p - p).max() < 1e-8
        assert numeric_rank(p) == n
        for i in range(n):
            assert np.abs(p[:, i] - emb @ t[:, i]).max() < 1e-9
        comb = _family(t, dil)
        assert np.abs(comb @ comb.conj().T - np.eye(n)).max() < 1e-8


def test_dilate_rejects_expansive():
    with pytest.raises(ContractViolation):
        dilate_operator(np.diag([1.5, 0.2]))


def test_projection_equals_gram():
    fr = _parseval(2, 5, 3)
    dil = naimark_dilate(fr)
    p = _projection(fr.synthesis, dil)[0]
    assert np.abs(p - gram_matrix(fr)).max() < 1e-12


def _perturbed(frame, excess, seed):
    """frame + t D for a seeded Gaussian D, with t set so that the frame
    operator S of the result has max|S - I| = excess, to a relative 1e-6."""
    d = np.random.default_rng(seed).standard_normal(frame.shape)

    def off(t):
        g = frame + t * d
        return np.abs(g @ g.conj().T - np.eye(frame.shape[0])).max()

    t = 1e-9
    for _ in range(3):          # off(t) is linear in t up to t^2 |D|^2
        t *= excess / off(t)
    assert abs(off(t) / excess - 1.0) < 1e-6
    return frame + t * d


def _boundary_inputs():
    """(name, matrix, mode) at the producers' input checks: a 3x4 Parseval
    frame whose column along (1, 1, 1)/sqrt(3) is stretched until
    max|S - I| = 9e-9, and 3x3 operators whose top singular value is
    1 + 0.6e-8 and 1 + 0.9e-8, all just inside; then a 3x5 Parseval frame
    and a 3x3 orthogonal matrix, each perturbed entrywise to max|S - I| a
    relative 1e-3 inside and outside CHECK_TOL, in either mode that takes
    it."""
    u = np.ones(3) / np.sqrt(3.0)
    rest = np.eye(3) + (np.sqrt(0.5) - 1.0) * np.outer(u, u)
    stretch = np.sqrt(1.0 + 6 * 9.0e-9)
    frame = np.column_stack([stretch * np.sqrt(0.5) * u, rest])
    assert abs(np.abs(frame @ frame.T - np.eye(3)).max() - 9.0e-9) < 1e-15
    yield "naimark", frame, "naimark"
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    r, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    for eps in (0.6e-8, 0.9e-8):
        op = q @ np.diag([1.0 + eps, 0.7, 0.3]) @ r
        assert abs(np.linalg.norm(op, 2) - 1.0 - eps) < 1e-15
        yield f"operator-{eps}", op, "operator"
    square, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
    for mode, frame in (("naimark", _parseval(3, 5, 4).synthesis),
                        ("naimark", square), ("operator", square)):
        for side, excess in (("inside", 1 - 1e-3), ("outside", 1 + 1e-3)):
            yield f"{mode}-{frame.shape[1]}-{side}", \
                _perturbed(frame, excess * CHECK_TOL, frame.shape[1]), mode


@pytest.mark.parametrize("name, matrix, mode", list(_boundary_inputs()))
def test_dilate_at_the_input_bounds_exits_2_or_verifies(tmp_path, name,
                                                        matrix, mode):
    """The producer holds its report to verify's certificate, so an input
    its own checks admit still gets either a refusal or a report that
    verifies.  For naimark that certificate is the Parseval precondition
    itself: a report is written exactly when max|S - I| <= CHECK_TOL."""
    path, rep = tmp_path / "input.json", tmp_path / "report.json"
    path.write_text(canonical_json(matrix_to_json(matrix)))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["dilate", "--input", str(path), "--mode", mode,
                     "--report", str(rep)])
    assert code in (0, 2), name
    assert rep.exists() == (code == 0), name
    if code == 0:
        assert verify(str(rep)) == (True, []), name
    if mode == "naimark":
        s = matrix @ matrix.conj().T
        assert (code == 0) == (np.abs(s - np.eye(3)).max() <= CHECK_TOL), name
