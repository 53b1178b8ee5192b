"""The dense reference for kernels: channel tensors traced and combined by one optimized einsum.

It shares no index with :func:`dtcm.dynamics._combine`'s term index: each
cavity's channel tensor is built whole (:func:`dtcm.dynamics._channel_tensor`)
and every trace and product is written as einsum subscripts.
"""

import numpy as np

from dtcm import dynamics
from dtcm.algebra import _trace_subscripts
from dtcm.dynamics import BellType


def einsum_combine(model, bell_type, Ea, Eb, keep):
    """The kernel K[t, row, col, branch] reduced to ``keep``, from channel tensors ``Ea``, ``Eb``, as it was first written."""
    if bell_type is BellType.PSI:
        Eb = Eb[..., ::-1, ::-1]
    traced, axes, order = [], [], ""
    for E, labels in zip((Ea, Eb), dynamics._cavity_labels(model)):
        kept = "".join(lab for lab in labels if lab in keep)
        state, reduced = _trace_subscripts(labels, kept)
        qubits = E.reshape(E.shape[:1] + (2,) * (2 * len(labels)) + E.shape[-2:])
        axes.append(f"t{reduced}sz")
        traced.append(np.einsum(f"t{state}sz->{axes[-1]}", qubits))
        order += kept
    order = "".join(sorted(order))
    K = np.einsum(f"{axes[0]},{axes[1]}->t{order}{order.lower()}sz", *traced, optimize=True)
    d = 2 ** len(order)
    return K.reshape(Ea.shape[0], d, d, Ea.shape[-1] ** 2)


def channels(model, field_a, field_b, taus):
    """Both cavities' channel tensors on ``taus``."""
    n_atoms = len(dynamics._cavity_labels(model)[0])
    return dynamics._channel_tensor(field_a, taus, n_atoms), dynamics._channel_tensor(field_b, taus, n_atoms)


def dense_kernel(model, bell_type, field_a, field_b, taus, keep):
    """:func:`einsum_combine` on both cavities' channel tensors."""
    return einsum_combine(model, bell_type, *channels(model, field_a, field_b, taus), keep)
