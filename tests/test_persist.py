import io
import struct
import zipfile

import numpy as np
import pytest

from prefhedge import (
    ConfigError,
    ModelParams,
    default_grid,
    load_h_surface,
    load_policy_surface,
    save_h_surface,
    save_policy_surface,
    solve_h,
)
from prefhedge.equilibrium import policy_from_h
from prefhedge.persist import params_hash
from prefhedge.pide import BAND_SD, QUAD_SD

P = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.6,
                mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))


@pytest.fixture(scope="module")
def solved():
    grid = default_grid(P, n_t_steps=40, n_y=81, n_ybar=7)
    h = solve_h(0.3, grid, P)
    pol = policy_from_h(h, grid, P)
    return grid, h, pol


def test_h_surface_round_trip(tmp_path, solved):
    grid, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    back = load_h_surface(path, P)
    assert np.array_equal(back.values, h.values)
    assert np.array_equal(back.grid.t_nodes, grid.t_nodes)
    assert np.array_equal(back.grid.ybar_nodes, grid.ybar_nodes)
    assert back.grid.eps_T == grid.eps_T
    assert type(back.grid.T) is float and type(back.grid.eps_T) is float
    # the loaded values keep the march's slice-major (ybar, t, y) layout
    assert np.moveaxis(back.values, 2, 0).flags.c_contiguous


def test_policy_surface_round_trip(tmp_path, solved):
    _, _, pol = solved
    path = tmp_path / "p.bin"
    save_policy_surface(path, pol, P)
    back = load_policy_surface(path, P)
    assert np.array_equal(back.pi, pol.pi)
    assert np.array_equal(back.myopic, pol.myopic)
    assert np.array_equal(back.hedging, pol.hedging)


def test_bit_flip_is_detected(tmp_path, solved):
    _, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="checksum"):
        load_h_surface(path, P)


def test_wrong_params_hash_is_detected(tmp_path, solved):
    _, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    other = ModelParams(r=0.03, mu_S=0.07, sigma_S=0.2, rho=0.6,
                        mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))
    with pytest.raises(ConfigError, match="hash"):
        load_h_surface(path, other)
    # loading without params skips the hash check
    assert load_h_surface(path) is not None


def test_wrong_magic_is_rejected(tmp_path, solved):
    _, h, pol = solved
    hp = tmp_path / "h.bin"
    save_h_surface(hp, h, P)
    with pytest.raises(ConfigError, match="container"):
        load_policy_surface(hp, P)
    pp = tmp_path / "p.bin"
    save_policy_surface(pp, pol, P)
    with pytest.raises(ConfigError, match="container"):
        load_h_surface(pp, P)


def _flip_offsets(blob):
    """About 40 byte offsets over an archive: for each member a field of
    its local header, the length of its .npy header and its last data
    byte, then fields of the central directory and of its end record."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        infos, cd_start = zf.infolist(), zf.start_dir
    offsets = []
    for info in infos:
        start = info.header_offset
        name_len, extra_len = struct.unpack_from("<HH", blob, start + 26)
        data = start + 30 + name_len + extra_len
        offsets += [start + 26, data + 8, data + info.file_size - 1]
    offsets += [cd_start, cd_start + 10, cd_start + 16, cd_start + 28, len(blob) - 6]
    return offsets


def _old_h_container(h, params):
    """A factor file in the binary layout used before the .npz archives."""
    g = h.grid
    body = b"HSRF" + struct.pack("<I", 1) + params_hash(params)
    body += struct.pack("<4I4d", *g.shape, g.gh_nodes.size,
                        g.eps_T, g.T, BAND_SD, QUAD_SD)
    for a in (g.t_nodes, g.y_nodes, g.ybar_nodes, g.gh_nodes, g.ybar_weights,
              np.moveaxis(h.values, 2, 0)):
        body += np.ascontiguousarray(a, dtype="<f8").tobytes()
    return body + struct.pack("<I", zipfile.crc32(body))


def _same_surface(a, b):
    arrays = ["t_nodes", "y_nodes", "ybar_nodes", "gh_nodes", "ybar_weights"]
    scalars = ["T", "eps_T"]
    payload = ["values"] if hasattr(a, "values") else ["pi", "myopic", "hedging"]
    return (all(np.array_equal(getattr(a.grid, n), getattr(b.grid, n)) for n in arrays)
            and all(getattr(a.grid, n) == getattr(b.grid, n) for n in scalars)
            and all(np.array_equal(getattr(a, n), getattr(b, n)) for n in payload))


@pytest.mark.parametrize("kind", ["h", "policy"])
def test_damaged_archive_fails_closed(tmp_path, solved, kind):
    _, h, pol = solved
    save, load, surface = {"h": (save_h_surface, load_h_surface, h),
                           "policy": (save_policy_surface, load_policy_surface, pol)}[kind]
    path = tmp_path / "s.bin"
    save(path, surface, P)
    blob = path.read_bytes()
    offsets = _flip_offsets(blob)
    assert 30 <= len(offsets) <= 45
    rejected = 0
    for off in offsets:
        damaged = bytearray(blob)
        damaged[off] ^= 1 << (off % 8)
        path.write_bytes(bytes(damaged))
        try:
            back = load(path, P)
        except ConfigError:
            rejected += 1
        else:
            assert _same_surface(back, surface), f"bit flip at byte {off} changed the data"
    # Every data byte sits under a member CRC-32.
    assert rejected >= len(offsets) // 2


@pytest.mark.parametrize("keep", [0.0, 0.5, 0.999])
def test_truncated_archive_is_rejected(tmp_path, solved, keep):
    _, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    blob = path.read_bytes()
    path.write_bytes(blob[:int(len(blob) * keep)])
    with pytest.raises(ConfigError, match="checksum"):
        load_h_surface(path, P)


def test_old_binary_container_is_rejected(tmp_path, solved):
    _, h, _ = solved
    path = tmp_path / "h.bin"
    path.write_bytes(_old_h_container(h, P))
    with pytest.raises(ConfigError, match="container"):
        load_h_surface(path, P)


def test_archive_with_band_widths_is_rejected(tmp_path, solved):
    # Archives written while the grid carried band_sd and quad_sd members.
    _, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    with np.load(path) as z:
        members = {name: z[name] for name in z.files}
    with open(path, "wb") as fh:
        np.savez(fh, **members, band_sd=np.float64(BAND_SD), quad_sd=np.float64(QUAD_SD))
    with pytest.raises(ConfigError, match="container"):
        load_h_surface(path, P)
