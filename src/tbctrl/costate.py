"""The costate pass: classical RK4 of the linear costate, backward from lam(tf) = 0.

The costate is linear in lam, so each RK4 step is an exact affine map, built
from the coefficients that ``_coefficients`` reads off the model's adjoint and
composed by a two-level doubling scan, in chunks that pay the pass's fixed cost
once per few hundred steps. ``solver.integrate_adjoint_backward`` runs it.
"""

from __future__ import annotations

import numpy as np

from . import models
from .core import (CostWeights, ParameterSet, ValidationError, _located,
                   _raise_first_nonfinite)


# Steps per chunk of the costate pass, and per sub-block of its scan. A chunk
# pays the pass's fixed cost, one coefficient read and about 200 numpy calls,
# once; longer chunks make fewer calls but hold more at once. A chunk's arrays
# peak at the coefficients, (n+1, n+1, 2 * _BLOCK + 1), and four
# (n+1, n+1, _BLOCK) stacks, about 300 KiB for four compartments. Traced, the
# flagship solve then peaks 22 KiB above what 64-step blocks held, against
# 326 KiB above with 512-step chunks, which run a 5000-step pass 15-25%
# faster. Sub-blocks of 8 and 16 steps run equally fast.
_BLOCK = 256
_SUB_BLOCK = 8
# The pass's ufunc buffer size, in elements. numpy buffers a product of two
# broadcast stacks, and with its default of 8192 each product of a chunk takes
# two buffers about as large as its result: 100 KiB more at the peak, and
# slower.
_BUFSIZE = 256


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small square matrices laid out (r, r, ...), one per trailing index.

    The r broadcast products a[:, j] * b[j] are added in j order, so no
    (r, r, r, ...) temporary exists. It calls neither numpy's matmul, whose
    BLAS matrix-matrix code, paged in on first use, adds about 0.25 MiB to the
    resident set of a process that has no other use for it, nor einsum, which
    raised the flagship benchmark's peak RSS.
    """
    out = a[:, 0, None] * b[0]
    for j in range(1, len(b)):
        out += a[:, j, None] * b[j]
    return out


# The costate lam' = A lam + b at the points t (P,), x (P, n), u (P, m), as augmented
# [[A, b], [0, 0]] laid out (n+1, n+1, P): one adjoint call, on (P,) columns against lam
# as (n+1, 1) columns, gives A's column k plus b at lam = e_k and b at lam = 0. Where the
# state holds an inf, 0 * inf makes b NaN, as in the pointwise costate. The model's errors pass on.
def _coefficients(d, w: CostWeights, p: ParameterSet, t, x, u) -> np.ndarray:
    n = d.state_dim
    q = p.values(d.required_params, t)
    out = np.zeros((n + 1, n + 1, len(t)))
    lam = list(np.eye(n, n + 1)[:, :, None])  # lam_j in column k: 1 if j == k, 0 at k = n
    for i, v in enumerate(d.adjoint(t, list(x.T.copy()), lam, list(u.T.copy()), q, w)):
        out[i] = v
    out[:n, :n] -= out[:n, n:]
    return out


def _affine_steps(coef: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each step's RK4 map of lam' = A lam + b, as augmented matrices [[M, c], [0, 1]].

    ``coef`` holds the augmented [[A, b], [0, 0]] of L steps, laid out
    (n+1, n+1, 2L+1): at the L+1 nodes in integration order, then at the L
    midpoints. ``h`` holds the L signed step sizes. RK4 on a linear system is
    the exact affine map lam -> M lam + c, and each stage acts on the
    augmented [lam; 1], so each is one stacked product. The result is laid out
    (n+1, n+1, L).
    """
    steps = len(h)
    a0, a1, am = coef[..., :steps], coef[..., 1:steps + 1], coef[..., steps + 1:]
    hh = 0.5 * h
    k = _matmul(am, a0)  # in place from here: few arrays live at once
    k *= hh
    k += am  # k2 = am (1 + hh k1), k1 = a0
    m = 2.0 * k
    m += a0
    k = _matmul(am, k)
    k *= hh
    k += am  # k3
    m += 2.0 * k
    k = _matmul(a1, k)
    k *= h
    k += a1  # k4
    m += k
    m *= h / 6.0
    for i in range(len(m)):
        m[i, i] += 1.0
    return m


def _compose(m: np.ndarray) -> np.ndarray:
    """Inclusive doubling scan along axis 2, in place: map j becomes map j after ... after map 0."""
    s = 1
    while s < m.shape[2]:
        m[:, :, s:] = _matmul(m[:, :, s:], m[:, :, :-s])
        s *= 2
    return m


def _apply(m: np.ndarray, v) -> np.ndarray:
    """Each augmented map [[M, c], [0, 1]] of the stack m applied to [v; 1]: M v + c."""
    n = len(m) - 1
    out = m[:n, n] + m[:n, 0] * v[0]
    for k in range(1, n):
        out += m[:n, k] * v[k]
    return out


def _first_refusal(d, w: CostWeights, p: ParameterSet, t, x, u):
    """The first step of a chunk whose stage point the pointwise costate refuses, and the error.

    t, x and u are the chunk's stage points, as ``_costate_pass`` lays them
    out; steps count from 1, and the points are tried in integration order.
    """
    names, zero = d.required_params, [0.0] * d.state_dim
    steps = len(t) // 2
    for j, i in [(1, 0)] + [(j, i) for j in range(1, steps + 1) for i in (steps + j, j)]:
        ti = float(t[i])
        try:
            d.adjoint(ti, x[i].tolist(), zero, u[i].tolist(), p.values(names, ti), w)
        except ValidationError as exc:
            return j, exc
    return None


def _costate_pass(d, w: CostWeights, p: ParameterSet, state: np.ndarray,
                  control: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Classical RK4 of the linear costate lam' = A lam + b backward from lam(tf) = 0.

    A and b are fixed by the state and control rows, so each RK4 step is an
    exact affine map of lam. The pass runs in chunks of ``_BLOCK`` steps, in
    integration order. For each chunk it reads A and b (``_coefficients``) at
    the chunk's distinct stage times (the nodes, and the midpoints with the
    mean of the two end rows as drivers), forms each step's map and composes
    the maps in two levels (see ``advance``).
    The scan associates the sums differently from a stage-by-stage pass, so
    the rows agree with one to roundoff, not bitwise; lam(tf) is exactly 0.

    Finiteness is checked once per pass, and the first non-finite row in
    integration order is reported. A ValidationError from the costate is
    located at the node of the first step to meet a failing stage time (the
    latest such time), once the rows before it are integrated and checked.
    """
    models._cost_vec(d.id, w)  # the weights must fit the model; no adjoint reads b
    n = d.state_dim
    ts = nodes[::-1]  # integration order
    lam = np.empty((len(nodes), n))  # allocated whole: a growing buffer is copied past the chunk arrays
    lam[-1] = 0.0
    rows = lambda: lam[done:][::-1]  # the rows so far, in integration order
    y = [0.0] * n  # the latest row
    done = len(nodes) - 1  # its node

    def points(lo):
        """Stage points from node done down to node lo: the nodes, then the midpoints."""
        t, x, u = nodes[lo:done + 1][::-1], state[lo:done + 1][::-1], control[lo:done + 1][::-1]
        return (np.concatenate([t, t[:-1] + 0.5 * (t[1:] - t[:-1])]),
                np.concatenate([x, 0.5 * (x[:-1] + x[1:])]),
                np.concatenate([u, 0.5 * (u[:-1] + u[1:])]))

    def advance(lo):
        """Integrate from node done down to node lo."""
        nonlocal done, y
        steps = done - lo
        t = nodes[lo:done + 1][::-1]
        m = _affine_steps(_coefficients(d, w, p, *points(lo)), t[1:] - t[:-1])
        # Two levels: a doubling scan within every sub-block of _SUB_BLOCK steps at
        # once, then one over the sub-blocks' ends, which carries [y; 1] to the
        # start of each sub-block. Zero maps pad the last sub-block past the last
        # step, and no step's composite includes them. In the scan's layout, step
        # i of every sub-block is one contiguous run, so each product is one loop.
        nb = -(-steps // _SUB_BLOCK)
        m = np.concatenate([m, np.zeros((n + 1, n + 1, nb * _SUB_BLOCK - steps))], axis=2)
        m = _compose(np.ascontiguousarray(m.reshape(n + 1, n + 1, nb, _SUB_BLOCK).swapaxes(2, 3)))
        z = _apply(_compose(m[:, :, -1].copy()), y)  # the row after each sub-block
        z = np.concatenate([np.array(y)[:, None], z[:, :-1]], axis=1)  # the row before it
        lam[lo:done] = _apply(m, z).swapaxes(1, 2).reshape(n, -1)[:, :steps].T[::-1]
        y, done = lam[lo].tolist(), lo

    bufsize = np.setbufsize(_BUFSIZE)
    try:
        while done > 0:
            lo = max(done - _BLOCK, 0)
            try:
                advance(lo)
            except ValidationError:
                refusal = _first_refusal(d, w, p, *points(lo))
                if refusal is None:
                    raise
                j, exc = refusal
                if j > 1:
                    advance(done - j + 1)
                _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
                raise _located(f"adjoint left the model's domain ({exc})", ts,
                               len(nodes) - done, backward=True) from exc
    except ArithmeticError:  # say, np.errstate(invalid="raise") in array arithmetic past a bad row
        _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
        raise
    finally:
        np.setbufsize(bufsize)
    _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
    return lam
