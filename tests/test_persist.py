import dataclasses
import io
import struct
import zipfile

import numpy as np
import pytest

from prefhedge import (
    ConfigError,
    ModelParams,
    default_grid,
    h_surface_writer,
    load_h_surface,
    load_policy_surface,
    read_h_surface,
    save_policy_surface,
    solve_h,
)
from prefhedge.equilibrium import policy_from_h
from prefhedge.errors import PositivityError
from prefhedge.persist import _write, params_hash
from prefhedge.pide import BAND_SD, QUAD_SD, HSurface
from test_pide import levels_of

P = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.6,
                mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))


@pytest.fixture(scope="module")
def solved():
    grid = default_grid(P, n_t_steps=40, n_y=81, n_ybar=7)
    levels = []
    solve_h(0.3, grid, P, lambda level, _pi_row: levels.append(level))
    h = HSurface.from_levels(grid, levels)
    pol = policy_from_h(h, grid, P)
    return grid, h, pol


def save_h_surface(path, h, params):
    """The archive of a gathered surface, its levels written as a solve hands them on."""
    with h_surface_writer(path, h.grid, params) as write:
        for level in levels_of(h):
            write(level)


def test_h_surface_round_trip(tmp_path, solved):
    grid, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    back = read_h_surface(path, P)
    assert np.array_equal(back.values, h.values)
    assert np.array_equal(back.grid.t_nodes, grid.t_nodes)
    assert np.array_equal(back.grid.ybar_nodes, grid.ybar_nodes)
    assert back.grid.eps_T == grid.eps_T
    assert type(back.grid.T) is float and type(back.grid.eps_T) is float
    # gathered level by level into HSurface's (t, y, ybar) C layout
    assert back.values.flags.c_contiguous


def test_h_surface_streams_its_slices(tmp_path, solved):
    # The grid comes first and the (ybar, y) levels one at a time, in march
    # order: the last time node first.
    grid, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    back, levels = load_h_surface(path, P)
    assert np.array_equal(back.ybar_nodes, grid.ybar_nodes)
    got = list(levels)
    n_t, n_y, n_s = grid.shape
    assert len(got) == n_t
    for m, level in enumerate(got):
        assert level.shape == (n_s, n_y) and np.array_equal(level, h.values[n_t - 1 - m].T)


def test_h_member_reads_with_plain_numpy(tmp_path, solved):
    # h[m] is the level at t_nodes[n_t - 1 - m], shape (n_ybar, n_y).
    grid, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    n_t, n_y, n_s = grid.shape
    with np.load(path) as z:
        assert np.array_equal(z["t_nodes"], grid.t_nodes)
        assert z["h"].shape == (n_t, n_s, n_y)
        for m in range(n_t):
            assert np.array_equal(z["h"][m], h.values[n_t - 1 - m].T)


@pytest.mark.parametrize("count", [0, 40, 42])
def test_writer_takes_exactly_n_t_levels(tmp_path, solved, count):
    grid, h, _ = solved
    levels = levels_of(h)
    levels = (levels + levels)[:count]
    assert grid.t_nodes.size == 41
    with pytest.raises(ValueError, match="levels written"):
        with h_surface_writer(tmp_path / "h.bin", grid, P) as write:
            for level in levels:
                write(level)


@pytest.mark.parametrize("kind", ["short", "transposed", "float32"])
def test_writer_refuses_a_misshapen_level(tmp_path, solved, kind):
    grid, _h, _ = solved
    n_t, n_y, n_s = grid.shape
    level = {"short": np.ones((n_s, n_y - 1)), "transposed": np.ones((n_y, n_s)),
             "float32": np.ones((n_s, n_y), dtype=np.float32)}[kind]
    with pytest.raises(ValueError, match=rf"a level is a \({n_s}, {n_y}\) float64 array"):
        with h_surface_writer(tmp_path / "h.bin", grid, P) as write:
            write(level)


def test_stream_checks_the_crc_with_the_last_slice(tmp_path, solved):
    grid, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    blob = bytearray(path.read_bytes())
    # The low mantissa byte of the last level's last node: still positive.
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("h.npy")
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    end = info.header_offset + 30 + name_len + extra_len + info.file_size
    blob[end - 8] ^= 0x01
    path.write_bytes(bytes(blob))
    _grid, levels = load_h_surface(path, P)
    # zipfile checks the CRC-32 as the member's last byte is read.
    for _ in range(grid.t_nodes.size - 1):
        next(levels)
    with pytest.raises(ConfigError, match="checksum"):
        next(levels)


def test_damaged_slice_is_named_by_its_checksum(tmp_path, solved):
    # A flipped sign bit makes a node negative; the damage, not the
    # factor, is reported, as when the archive was read whole.
    grid, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    blob = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("h.npy")
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    end = info.header_offset + 30 + name_len + extra_len + info.file_size
    n_t, n_y, n_s = grid.shape
    # The sign bit of the third level's last node.
    blob[end - (n_t - 3) * n_s * n_y * 8 - 1] ^= 0x80
    path.write_bytes(bytes(blob))
    _grid, levels = load_h_surface(path, P)
    for _ in range(2):
        next(levels)
    with pytest.raises(ConfigError, match="checksum"):
        next(levels)


@pytest.mark.parametrize("bad", [0.0, -2.0, np.inf, np.nan])
def test_stream_refuses_a_non_positive_slice(tmp_path, solved, bad):
    # A node that is not finite and positive raises where its level is
    # read, naming its (t, y, ybar); the later levels have gone out.
    grid, h, _ = solved
    n_t = grid.t_nodes.size
    values = np.array(levels_of(h))
    values[n_t - 1 - 7, 3, 11] = bad
    path = tmp_path / "h.bin"
    _write(path, P, grid, h=values)
    _grid, levels = load_h_surface(path, P)
    for _ in range(n_t - 1 - 7):
        next(levels)
    with pytest.raises(PositivityError) as exc:
        next(levels)
    assert (exc.value.t, exc.value.y, exc.value.ybar) == (
        grid.t_nodes[7], grid.y_nodes[11], grid.ybar_nodes[3])
    with pytest.raises(PositivityError):
        read_h_surface(path, P)


def test_policy_surface_round_trip(tmp_path, solved):
    _, _, pol = solved
    path = tmp_path / "p.bin"
    save_policy_surface(path, pol, P)
    back = load_policy_surface(path, P)
    assert np.array_equal(back.pi, pol.pi)
    assert np.array_equal(back.myopic, pol.myopic)
    assert np.array_equal(back.hedging, pol.hedging)


@pytest.mark.parametrize("kind", ["h", "h_not_contiguous", "policy"])
def test_members_equal_np_savez(tmp_path, solved, kind):
    # The streamed writer must give np.savez's members byte for byte; the
    # 0-d T and eps_T members stay 0-d, which a load round trip would hide.
    grid, h, pol = solved
    if kind == "policy":
        save_policy_surface(tmp_path / "got.bin", pol, P)
        payload = {"pi": pol.pi, "myopic": pol.myopic, "hedging": pol.hedging}
    else:
        levels = levels_of(h)
        if kind == "h":
            levels = [np.ascontiguousarray(level) for level in levels]
        assert all(level.flags.c_contiguous == (kind == "h") for level in levels)
        with h_surface_writer(tmp_path / "got.bin", grid, P) as write:
            for level in levels:
                write(level)
        payload = {"h": np.array(levels)}
    with open(tmp_path / "want.bin", "wb") as fh:
        np.savez(fh, params_hash=np.frombuffer(params_hash(P), dtype=np.uint8),
                 **{f.name: getattr(grid, f.name) for f in dataclasses.fields(grid)},
                 **payload)
    with zipfile.ZipFile(tmp_path / "got.bin") as got, \
            zipfile.ZipFile(tmp_path / "want.bin") as want:
        assert got.namelist() == want.namelist()
        for name in want.namelist():
            assert got.getinfo(name).compress_type == zipfile.ZIP_STORED
            assert got.read(name) == want.read(name), name
    with np.load(tmp_path / "got.bin") as z:
        assert z["T"].shape == z["eps_T"].shape == ()


def test_bit_flip_is_detected(tmp_path, solved):
    _, h, _ = solved
    path = tmp_path / "h.bin"
    save_h_surface(path, h, P)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="checksum"):
        read_h_surface(path, P)


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


def test_params_hash_is_pinned():
    # Every saved archive carries this hash of the sweep point; a change to
    # the packing or to the order of ModelParams's fields would orphan them.
    assert params_hash(P) == bytes.fromhex("c6d9d7f7dc22463bacd3cf00006d12e9")


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
    save, load, surface = {"h": (save_h_surface, read_h_surface, h),
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
