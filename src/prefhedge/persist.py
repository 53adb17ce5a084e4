"""numpy ``.npz`` archives for solved surfaces.

An archive holds one member per :class:`GridSpec` field (scalars 0-d, read
back as Python floats), ``params_hash`` (uint8[16]: the leading half of the
SHA-256 of the packed parameter tuple) and the payload: ``h``, the factor
in slice-major (ybar, t, y) order, or ``pi``, ``myopic`` and ``hedging``.
Floats are stored raw.  Loading checks every member's zip CRC-32, the
member set and, when the caller passes the parameters, the hash; each
failure raises :class:`ConfigError`.

To plot, plain numpy reads an archive: ``np.load("policy_surface.bin")``
gives members ``t_nodes``, ``y_nodes`` and the (t, y) arrays ``pi``,
``myopic`` and ``hedging``, with ``pi == myopic + hedging`` exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import zipfile

import numpy as np

from .errors import ConfigError
from .model import ModelParams
from .pide import GridSpec, HSurface
from .equilibrium import PolicySurface

_GRID_FIELDS = tuple(f.name for f in dataclasses.fields(GridSpec))


def params_hash(params: ModelParams) -> bytes:
    packed = struct.pack(
        "<8d", params.r, params.mu_S, params.sigma_S, params.rho,
        params.mu_Y, params.sigma_Y, params.T, params.y0,
    )
    return hashlib.sha256(packed).digest()[:16]


def _write(path, params, grid, **payload):
    """np.savez's archive, each member written from its own buffer.

    np.savez copies members out in 16 MiB chunks, which set the solve's peak
    memory.  np.asarray keeps 0-d members 0-d; np.ascontiguousarray would not.
    """
    members = {"params_hash": np.frombuffer(params_hash(params), dtype=np.uint8),
               **{name: getattr(grid, name) for name in _GRID_FIELDS}, **payload}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in members.items():
            arr = np.asarray(arr, order="C")
            with zf.open(name + ".npy", "w", force_zip64=True) as fid:
                fmt = np.lib.format
                fmt.write_array_header_1_0(fid, fmt.header_data_from_array_1_0(arr))
                fid.write(memoryview(arr).cast("B"))


def _read(path, payload, params):
    """The grid and the payload arrays (in ``payload`` order) of a checked archive."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as z:
                arrays = {}
                for name in z.zip.namelist():
                    with z.zip.open(name) as member:
                        try:
                            arrays[name.removesuffix(".npy")] = np.lib.format.read_array(
                                member, allow_pickle=False)
                        finally:
                            # Read on to EOF, where zipfile checks the CRC-32 that a
                            # damaged .npy header would stop numpy short of.
                            member.read()
        # Damaged zip structure (RuntimeError: zipfile's encryption/method flags).
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError) as exc:
            raise ConfigError(f"{path}: checksum or structure check failed ({exc})") from exc
        except ValueError as exc:
            # A file that is no archive at all reaches numpy's pickle branch.
            raise ConfigError(f"{path}: not a {'/'.join(payload)} container ({exc})") from exc
    if sorted(arrays) != sorted((*_GRID_FIELDS, "params_hash", *payload)):
        raise ConfigError(f"{path}: not a {'/'.join(payload)} container: {sorted(arrays)}")
    if params is not None and arrays["params_hash"].tobytes() != params_hash(params):
        raise ConfigError(f"{path}: parameter hash mismatch")
    grid = GridSpec(**{name: arrays[name].item() if arrays[name].ndim == 0 else arrays[name]
                       for name in _GRID_FIELDS})
    return grid, [arrays[name] for name in payload]


def save_h_surface(path, h: HSurface, params: ModelParams):
    _write(path, params, h.grid, h=np.moveaxis(h.values, 2, 0))


def load_h_surface(path, params: ModelParams | None = None) -> HSurface:
    grid, (h,) = _read(path, ("h",), params)
    # Keep the march's slice-major layout: values is a (t, y, ybar) view.
    return HSurface(grid=grid, values=np.moveaxis(h, 0, 2))


def save_policy_surface(path, pol: PolicySurface, params: ModelParams):
    _write(path, params, pol.grid, pi=pol.pi, myopic=pol.myopic, hedging=pol.hedging)


def load_policy_surface(path, params: ModelParams | None = None) -> PolicySurface:
    grid, (pi, myopic, hedging) = _read(path, ("pi", "myopic", "hedging"), params)
    return PolicySurface(grid=grid, pi=pi, myopic=myopic, hedging=hedging)
