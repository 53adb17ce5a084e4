"""Binary containers for solved surfaces, plus CSV emission helpers.

Layout (little-endian):
    magic (4 bytes: b"HSRF" factors / b"PSRF" policies)
    version (uint32)
    params hash (16 bytes: leading half of the SHA-256 of the packed
        parameter tuple)
    n_t, n_y, n_ybar, n_gh (uint32 each; policies store n_ybar/n_gh too,
        the grid rides along)
    eps_T, T, band_sd, quad_sd (float64 each)
    grid arrays (t_nodes, y_nodes, ybar_nodes, gh_nodes, ybar_weights)
    payload arrays (factor values in ybar-major (ybar, t, y) order, or
        pi/myopic/hedging stacked)
    crc32 of everything above (uint32)

Every float is written raw (full precision); loading verifies the magic,
version, checksum, and — when the caller passes the parameters — the hash.

The policy CSV (:func:`policy_to_csv`) is text for plotting: a header line
``t,y,pi,myopic,hedging`` and one line per (t, y) node, t-major, each cell
the shortest round-trip decimal of the float (``0.3791...``, ``-0.0``,
``nan``), which parses back to the same float.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np

from .errors import ConfigError
from .model import ModelParams
from .pide import GridSpec, HSurface
from .equilibrium import PolicySurface

_H_MAGIC = b"HSRF"
_P_MAGIC = b"PSRF"
_VERSION = 1


def params_hash(params: ModelParams) -> bytes:
    packed = struct.pack(
        "<8d", params.r, params.mu_S, params.sigma_S, params.rho,
        params.mu_Y, params.sigma_Y, params.T, params.y0,
    )
    return hashlib.sha256(packed).digest()[:16]


def _pack_grid(grid: GridSpec) -> bytes:
    head = struct.pack(
        "<4I4d",
        grid.t_nodes.size, grid.y_nodes.size,
        grid.ybar_nodes.size, grid.gh_nodes.size,
        grid.eps_T, grid.T, grid.band_sd, grid.quad_sd,
    )
    arrays = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in (grid.t_nodes, grid.y_nodes, grid.ybar_nodes,
                  grid.gh_nodes, grid.ybar_weights)
    )
    return head + arrays


def _unpack_grid(buf, off):
    n_t, n_y, n_s, n_gh, eps_T, T, band_sd, quad_sd = struct.unpack_from("<4I4d", buf, off)
    off += struct.calcsize("<4I4d")

    def take(n):
        nonlocal off
        arr = np.frombuffer(buf, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        return arr

    grid = GridSpec(
        T=T, eps_T=eps_T,
        t_nodes=take(n_t), y_nodes=take(n_y), ybar_nodes=take(n_s),
        gh_nodes=take(n_gh), ybar_weights=take(n_gh),
        band_sd=band_sd, quad_sd=quad_sd,
    )
    return grid, off


def _write(path, magic, params, grid, payload_arrays):
    body = magic + struct.pack("<I", _VERSION) + params_hash(params) + _pack_grid(grid)
    body += b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                     for a in payload_arrays)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


def _read(path, magic, params):
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 4 + 4 + 16 + 4 or buf[:4] != magic:
        raise ConfigError(f"{path}: not a {magic.decode()} container")
    crc_stored = struct.unpack_from("<I", buf, len(buf) - 4)[0]
    if zlib.crc32(buf[:-4]) & 0xFFFFFFFF != crc_stored:
        raise ConfigError(f"{path}: checksum mismatch (corrupted file)")
    off = 4
    (version,) = struct.unpack_from("<I", buf, off)
    off += 4
    if version != _VERSION:
        raise ConfigError(f"{path}: unsupported container version {version}")
    stored_hash = buf[off:off + 16]
    off += 16
    if params is not None and stored_hash != params_hash(params):
        raise ConfigError(f"{path}: parameter hash mismatch")
    grid, off = _unpack_grid(buf, off)
    return buf, off, grid


def save_h_surface(path, h: HSurface, params: ModelParams):
    # values stored ybar-major: (ybar, t, y)
    _write(path, _H_MAGIC, params, h.grid, [np.moveaxis(h.values, 2, 0)])


def load_h_surface(path, params: ModelParams | None = None) -> HSurface:
    buf, off, grid = _read(path, _H_MAGIC, params)
    n_t, n_y, n_s = grid.shape
    vals = np.frombuffer(buf, dtype="<f8", count=n_s * n_t * n_y, offset=off)
    values = np.moveaxis(vals.reshape(n_s, n_t, n_y), 0, 2).copy()
    return HSurface(grid=grid, values=values)


def save_policy_surface(path, pol: PolicySurface, params: ModelParams):
    _write(path, _P_MAGIC, params, pol.grid, [pol.pi, pol.myopic, pol.hedging])


def load_policy_surface(path, params: ModelParams | None = None) -> PolicySurface:
    buf, off, grid = _read(path, _P_MAGIC, params)
    n_t, n_y, _ = grid.shape
    count = n_t * n_y
    arrs = []
    for _i in range(3):
        arrs.append(np.frombuffer(buf, dtype="<f8", count=count, offset=off)
                    .reshape(n_t, n_y).copy())
        off += 8 * count
    return PolicySurface(grid=grid, pi=arrs[0], myopic=arrs[1], hedging=arrs[2])


def policy_to_csv(path, pol: PolicySurface):
    """Plot-ready CSV: one row per (t, y) node with all three components.

    Header ``t,y,pi,myopic,hedging``, then the rows t-major (y varies
    fastest); every cell is the shortest round-trip ``repr`` of a plain
    float, so ``np.loadtxt(path, delimiter=",", skiprows=1)`` gives back
    the grid and the surfaces bit for bit.
    """
    grid = pol.grid
    y_txt = [repr(v) for v in grid.y_nodes.tolist()]
    with open(path, "w") as fh:
        fh.write("t,y,pi,myopic,hedging\n")
        for tk, pi, my, hd in zip(map(repr, grid.t_nodes.tolist()), pol.pi.tolist(),
                                  pol.myopic.tolist(), pol.hedging.tolist()):
            fh.write("".join(f"{tk},{yi},{a!r},{b!r},{c!r}\n"
                             for yi, a, b, c in zip(y_txt, pi, my, hd)))
