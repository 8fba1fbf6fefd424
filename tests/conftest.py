import functools

import numpy as np
import pytest

from icrates import DiscreteIC, regions, search, sumcap


def composed_mi(bj, term) -> np.ndarray:
    """``I(T;S|G)`` over the batch joint ``bj``, written out from its four
    subset entropies: ``max((H(TG) + H(SG)) - H(G) - H(TSG), 0)``."""
    t, s, g = map(frozenset, term)
    h_tg, h_sg, h_g, h_tsg = map(bj.entropy, (t | g, s | g, g, t | s | g))
    return np.maximum(h_tg + h_sg - h_g - h_tsg, 0.0)


def orthogonal_channel() -> DiscreteIC:
    """Noiseless parallel links: Y1 = X1, Y2 = X2 (binary)."""
    law = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            law[x1, x2, x1, x2] = 1.0
    return DiscreteIC.from_array(law)


def strong_pair_channel() -> DiscreteIC:
    """Both receivers see the full input pair: Y1 = Y2 = (X1, X2)."""
    law = np.zeros((2, 2, 4, 4))
    for x1 in range(2):
        for x2 in range(2):
            pair = x1 * 2 + x2
            law[x1, x2, pair, pair] = 1.0
    return DiscreteIC.from_array(law)


def product_channel(seed: int) -> DiscreteIC:
    """Independent point-to-point pair: p(y1|x1) p(y2|x2)."""
    rng = np.random.default_rng(seed)
    p1 = rng.dirichlet(np.ones(2), size=2)
    p2 = rng.dirichlet(np.ones(2), size=2)
    return DiscreteIC.from_array(np.einsum("ik,jl->ijkl", p1, p2))


def xor_channel() -> DiscreteIC:
    """Y1 = Y2 = X1 xor X2, noiseless."""
    law = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            y = x1 ^ x2
            law[x1, x2, y, y] = 1.0
    return DiscreteIC.from_array(law)


def canonical_layers_loop(pw: np.ndarray, pxw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``(pw, px|w row)`` pairs put in order one row at a time by
    Python's ``sorted``: by ``pw``, then by the ``px|w`` row, both descending."""
    out_w, out_x = np.empty_like(pw), np.empty_like(pxw)
    for b in range(len(pw)):
        pairs = sorted(zip(pw[b].tolist(), map(tuple, pxw[b].tolist())), reverse=True)
        out_w[b] = [w for w, _ in pairs]
        out_x[b] = [x for _, x in pairs]
    return out_w, out_x


def label_images(batch, blocks, labels):
    """``batch`` with each point's ``labels`` blocks put in canonical order by
    :func:`canonical_layers_loop`: a label's key is its column of the first
    block, then its slice of every later block.  When the first block is one
    slice, later blocks' slices at labels of zero mass are first set to their
    block's first grid point."""
    head, *tail = [b for b in blocks if b.name in labels]
    cols = batch[head.name]
    rows = [batch[b.name].copy() for b in tail]
    if head.n_slices == 1:
        for b, r in zip(tail, rows):
            r[cols[:, 0, :] == 0.0] = search.simplex_grid(b.k, b.steps)[0]
    pxw = np.concatenate([np.swapaxes(cols[:, 1:, :], 1, 2), *rows], axis=2)
    w, x = canonical_layers_loop(cols[:, 0, :], pxw)
    out = dict(batch)
    out[head.name] = np.concatenate([w[:, np.newaxis, :], np.swapaxes(x[:, :, :head.n_slices - 1], 1, 2)],
                                    axis=1)
    offset = head.n_slices - 1
    for b in tail:
        out[b.name] = x[:, :, offset:offset + b.k]
        offset += b.k
    return out


def _canonical_sides(law):
    out = {}
    for pw, pxw in (("pw1", "px1w1"), ("pw2", "px2w2")):
        out[pw], out[pxw] = canonical_layers_loop(law[pw], law[pxw])
    return out


def constant_w_laws(px1, px2):
    """Product laws of the marginal rows ``px1``, ``px2`` with constant W layers."""
    ones = np.ones((len(px1), 1))
    return {"pw1": ones, "px1w1": px1[:, np.newaxis, :], "pw2": ones, "px2w2": px2[:, np.newaxis, :]}


def _layered(raw):
    """A layered law batch from grid blocks ``{pw: [B, 1, nw], px|w: [B, nw, nx]}``."""
    return {name: v[:, 0, :] if name.startswith("pw") else v for name, v in raw.items()}


def family_from_scratch(ch, family, cfg, canonical=True):
    """``((source, member), batch, feeds)`` for every member of every law of
    ``family``, one row per law: the raw layered and product grids, the
    random draws and the anchor, with every member's chain applied to its
    source law from the start.  With ``canonical`` set, both sides of each
    layered grid law are first put in order by :func:`canonical_layers_loop`."""
    for s, src in enumerate(family):
        blocks = regions._source_blocks(ch, src, cfg)
        if src.kind == "anchor":
            opt, _ = sumcap.tin_sumrate(ch, cfg)
            laws = [constant_w_laws(opt.px1[np.newaxis, :], opt.px2[np.newaxis, :])]
        elif src.kind == "products":
            laws = [constant_w_laws(raw["px1"][:, 0, :], raw["px2"][:, 0, :])
                    for _, raw in search.iter_grid_batches(blocks)]
        else:
            laws = [_layered(raw) for _, raw in search.iter_grid_batches(blocks)]
            if canonical:
                laws = [_canonical_sides(law) for law in laws]
            if cfg.restarts:
                rng = np.random.default_rng(np.random.SeedSequence([0xFA111E5, cfg.seed, src.tag]))
                laws.append(_layered({b.name: rng.dirichlet(np.ones(b.k), size=(cfg.restarts, b.n_slices))
                                      for b in blocks}))
        for batch in laws:
            for m, (chain, feeds) in enumerate(src.members):
                yield (s, m), functools.reduce(lambda b, step: regions.relayer(b, *step), chain, batch), feeds


@pytest.fixture
def orthogonal():
    return orthogonal_channel()


@pytest.fixture
def strong_pair():
    return strong_pair_channel()
