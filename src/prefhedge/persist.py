"""numpy ``.npz`` archives for solved surfaces.

An archive holds one member per :class:`GridSpec` field (scalars 0-d, read
back as Python floats), ``params_hash`` (uint8[16]: the leading half of the
SHA-256 of the ModelParams fields in field order, packed as little-endian
doubles) and the payload: ``h``, the factor, or ``pi``, ``myopic`` and
``hedging``.  Floats are stored raw.

``h`` is level-major and in march order, the order the solve makes its
levels in: shape (n_t, n_ybar, n_y), and ``h[m]`` is the level at
t_nodes[n_t - 1 - m], so the last time node comes first.  h_surface_writer
writes it one level at a time as the march hands the levels on (zipfile
computes the member's CRC-32 as the bytes go in), and the solve never holds
the whole surface.

One reader, _stream, reads an archive in one pass: the grid, then the
payload one array at a time, so the factor comes one level after another.
It checks the member set, the parameter hash when the caller passes the
parameters, each payload member's shape and each member's zip CRC-32;
each failure raises :class:`ConfigError`.  load_h_surface hands the levels
on as they are read, which lets verify's residual walk a surface that
never sits in memory whole; read_h_surface and load_policy_surface gather
them.

To plot, plain numpy reads an archive: ``np.load("policy_surface.bin")``
gives members ``t_nodes``, ``y_nodes`` and the (t, y) arrays ``pi``,
``myopic`` and ``hedging``, with ``pi == myopic + hedging`` exactly, and
``np.load("h_surface.bin")["h"][m]`` is the factor at
``t_nodes[n_t - 1 - m]``, shape (n_ybar, n_y).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import struct
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, PositivityError
from .model import ModelParams
from .pide import GridSpec, HSurface, checked_factor
from .equilibrium import PolicySurface

_GRID_FIELDS = tuple(f.name for f in dataclasses.fields(GridSpec))


def params_hash(params: ModelParams) -> bytes:
    values = dataclasses.astuple(params)
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).digest()[:16]


def _write_members(zf, params, grid, **payload):
    """np.savez's members: the parameter hash, the grid and ``payload``.

    Each is written from its own buffer: np.savez copies members out in
    16 MiB chunks, which set the solve's peak memory.  np.asarray keeps 0-d
    members 0-d; np.ascontiguousarray would not.
    """
    members = {"params_hash": np.frombuffer(params_hash(params), dtype=np.uint8),
               **{name: getattr(grid, name) for name in _GRID_FIELDS}, **payload}
    fmt = np.lib.format
    for name, arr in members.items():
        arr = np.asarray(arr, order="C")
        with zf.open(name + ".npy", "w", force_zip64=True) as fid:
            fmt.write_array_header_1_0(fid, fmt.header_data_from_array_1_0(arr))
            fid.write(memoryview(arr).cast("B"))


def _write(path, params, grid, **payload):
    """np.savez's archive of the grid and ``payload``, written member by member."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        _write_members(zf, params, grid, **payload)


def _member(zf, name, shape=None):
    """Yield the array of member ``name``, then read the member to its end.

    Given ``shape``, the member must have it and comes as its (n_t, n_y)
    pieces in file order, one at a time.  zipfile checks the member's
    CRC-32 at the end, which a damaged .npy header would stop numpy short
    of: a header that fails to parse or check reads on to the end, so a
    damaged one raises the checksum error.
    """
    fmt = np.lib.format
    with zf.open(name + ".npy") as member:
        try:
            # _write and np.savez write format 1.0 headers.
            version = fmt.read_magic(member)
            if version != (1, 0):
                raise ValueError(f"{name}: .npy format version {version}")
            got, fortran_order, dtype = fmt.read_array_header_1_0(member)
            if fortran_order or dtype.hasobject or shape not in (None, got):
                raise ValueError(f"{name}: {dtype} array of shape {got}, expected {shape}")
        except Exception:
            member.read()
            raise
        piece = got if shape is None else got[-2:]
        for _ in range(math.prod(got[:len(got) - len(piece)])):
            arr = np.empty(piece, dtype)
            if member.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ValueError(f"{name}: data ends early")
            yield arr
        member.read()


def _stream(path, payload, params):
    """Yield a checked archive's grid, then its ``payload`` members' arrays.

    The payload members are read in the order named: the factor ``h``,
    shape (n_t, n_ybar, n_y), as its (n_ybar, n_y) levels in march order;
    the policy members, shape (n_t, n_y), whole.  Each failure raises
    ConfigError when the stream reaches it: the member set and the hash
    before the grid is yielded, a payload member's shape and CRC-32 as it
    is read.
    """
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as z:
                names = sorted(name.removesuffix(".npy") for name in z.zip.namelist())
                if names != sorted((*_GRID_FIELDS, "params_hash", *payload)):
                    raise ValueError(f"members {names}")
                arrays = {}
                for name in ("params_hash", *_GRID_FIELDS):
                    (arrays[name],) = _member(z.zip, name)
                if params is not None and arrays["params_hash"].tobytes() != params_hash(params):
                    raise ConfigError(f"{path}: parameter hash mismatch")
                grid = GridSpec(**{name: arrays[name].item() if arrays[name].ndim == 0
                                   else arrays[name] for name in _GRID_FIELDS})
                yield grid
                n_t, n_y, n_s = grid.shape
                for name in payload:
                    yield from _member(z.zip, name, (n_t, n_s, n_y) if name == "h" else (n_t, n_y))
        except ConfigError:
            raise
        # Damaged zip structure (RuntimeError: zipfile's encryption/method flags).
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError) as exc:
            raise ConfigError(f"{path}: checksum or structure check failed ({exc})") from exc
        except ValueError as exc:
            # A file that is no archive at all reaches numpy's pickle branch.
            raise ConfigError(f"{path}: not a {'/'.join(payload)} container ({exc})") from exc


@contextlib.contextmanager
def h_surface_writer(path, grid: GridSpec, params: ModelParams):
    """Write a factor archive at ``path`` one level at a time: yields ``write(level)``.

    ``write`` takes the (n_ybar, n_y) float64 levels in march order,
    t_nodes[-1] first, as a solve's ``take`` gets them, and appends each to
    the ``h`` member as it comes; exactly n_t of them must come before the
    block ends (ValueError otherwise).  The file is written in place: a
    caller that must not leave a partial archive writes to a staged name.
    """
    n_t, n_y, n_s = grid.shape
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
              "fortran_order": False, "shape": (n_t, n_s, n_y)}
    written = 0
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        _write_members(zf, params, grid)
        with zf.open("h.npy", "w", force_zip64=True) as fid:
            np.lib.format.write_array_header_1_0(fid, header)

            def write(level):
                nonlocal written
                if level.shape != (n_s, n_y) or level.dtype != np.float64:
                    raise ValueError(f"a level is a ({n_s}, {n_y}) float64 array, "
                                     f"got {level.dtype} {level.shape}")
                fid.write(memoryview(np.ascontiguousarray(level)).cast("B"))
                written += 1

            yield write
        if written != n_t:
            raise ValueError(f"{path}: {written} of {n_t} levels written")


@contextlib.contextmanager
def staged(*paths):
    """Temporary names beside ``paths``, moved onto them only if the block succeeds.

    Yields one temporary path per path.  When the block ends without error,
    each is moved onto its path by os.replace; when it raises, every
    temporary file is removed and the paths are left as they were.
    """
    temps = [Path(p).with_name(Path(p).name + ".part") for p in paths]
    try:
        yield temps
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    for temp, path in zip(temps, paths):
        os.replace(temp, path)


def load_h_surface(path, params: ModelParams | None = None):
    """Open a factor archive: ``(grid, levels)``, the levels read as they are used.

    The member set and the parameter hash (when ``params`` is given) are
    checked before this returns.  ``levels`` is a one-pass iterator of the
    (n_ybar, n_y) factor levels in march order, t_nodes[-1] first; reading
    it checks the factor's shape, each level finite and strictly positive
    (PositivityError naming the first bad node's (t, y, ybar), raised once
    the rest of the member has passed its CRC-32) and, as the last level is
    read, the member's CRC-32 (ConfigError).  One level is in memory at a
    time, and the archive stays open until the iterator ends.  verify
    passes it to pide.residual; read_h_surface gathers it.
    """
    stream = _stream(path, ("h",), params)
    grid = next(stream)

    def levels():
        for m, level in enumerate(stream):
            try:
                checked_factor(level, grid, grid.t_nodes.size - 1 - m)
            except PositivityError:
                # Read on to the CRC-32 first: a damaged file is named as such.
                for _ in stream:
                    pass
                raise
            yield level

    return grid, levels()


def read_h_surface(path, params: ModelParams | None = None) -> HSurface:
    """The whole factor surface of an archive, gathered from load_h_surface.

    For callers that read the surface at will (tests, plots): HSurface's
    (t, y, ybar) layout, built level by level (HSurface.from_levels).
    """
    grid, levels = load_h_surface(path, params)
    return HSurface.from_levels(grid, levels)


def save_policy_surface(path, pol: PolicySurface, params: ModelParams):
    _write(path, params, pol.grid, pi=pol.pi, myopic=pol.myopic, hedging=pol.hedging)


def load_policy_surface(path, params: ModelParams | None = None) -> PolicySurface:
    """The checked policy archive, read whole (see _stream)."""
    grid, pi, myopic, hedging = _stream(path, ("pi", "myopic", "hedging"), params)
    return PolicySurface(grid=grid, pi=pi, myopic=myopic, hedging=hedging)
