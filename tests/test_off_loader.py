"""The numpy OFF loader against the line parser it replaced.

``line_parser_load_off`` is the earlier loader, kept here verbatim as the
oracle: on generated OFF text both must give the same arrays, or both
must refuse the text with a ``MeshError``.  The deliberate differences
are pinned by name below:

* header counts on the keyword line (``OFF 4 4 6``) are read, and
  negative counts or dimensions are refused;
* vertex rows with fewer numbers than the dimension are refused, even
  when every row is short alike (the line parser made a mesh in a lower
  dimension from them);
* numbers are ASCII literals as numpy reads them, so Python-only
  spellings (``1_0``, non-ASCII digits) are refused.
"""
import math
import re
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussmap.errors import MeshError
from gaussmap.polyhedral import (SimplicialImmersion, load_off,
                                 total_invariant_2)


def line_parser_load_off(path) -> SimplicialImmersion:
    """Triangle meshes in OFF format; nOFF carries an ambient dimension."""
    with open(path) as fh:
        rows = filter(None, (ln.split("#", 1)[0].split() for ln in fh))
        header = next(rows, None)
        if header is None:
            raise MeshError(f"{path}: empty file")
        if header[0] not in ("OFF", "nOFF"):
            raise MeshError(f"{path}: expected OFF or nOFF header")
        try:
            ambient = 3
            if header[0] == "nOFF":
                ambient = int(header[1] if len(header) > 1
                              else next(rows, [""])[0])
            nv, nf = [int(x) for x in next(rows, [])[:2]]
            vertices = [[float(x) for x in row[:ambient]]
                        for row in islice(rows, max(nv, 0))]
            faces = []
            for row in islice(rows, max(nf, 0)):
                parts = [int(x) for x in row]
                if parts[0] != 3:
                    raise MeshError(
                        f"{path}: only triangle faces are supported, "
                        f"got a face of {parts[0]} vertices")
                faces.append(parts[1:4])
            if len(vertices) != nv or len(faces) != nf:
                raise ValueError(f"header promises {nv} vertices and {nf} "
                                 f"faces, found {len(vertices)} and "
                                 f"{len(faces)}")
        except ValueError as exc:
            raise MeshError(f"{path}: malformed OFF data: {exc}") from exc
    return SimplicialImmersion(vertices, faces)


def _outcome(loader, path):
    """(vertices, cells) of a loaded mesh, or None for a MeshError."""
    try:
        mesh = loader(path)
    except MeshError:
        return None
    return mesh.vertices, mesh.cells


def _same_arrays(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


# ---------------------------------------------------------------------------
# generated OFF text

COORDS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-10, 10, allow_nan=False).map(lambda x: "%.17g" % x),
    st.integers(-5, 5).map(str),
    st.sampled_from(["-0.0", "+1.5", ".5", "5.", "1e-3", "2E+2"]))
BAD_NUMBERS = st.sampled_from(["x", "nan", "inf", "-inf", "1e999", "1.5.2",
                               "0x10", "--1", "1-2", "+"])
JUNK = st.sampled_from(["red", "0.5", "1x", "#", "+", "2-", "1e3"])
SPACE = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\x0c"])
NOISE = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented",
                         "#", "\x0c"])
DEFECTS = [None] * 6 + [
    "count", "short vertex row", "short vertex rows", "bad coordinate",
    "face size", "short face", "face token", "extra face token",
    "bad index", "truncated", "extra vertex row"]


@st.composite
def off_files(draw):
    """(text read by ``load_off``, the same file for the line parser,
    dimension).  The two differ only where the counts share a line with
    the keyword or the dimension, which the line parser did not read.
    Most files are well formed; the rest carry one defect."""
    defect = draw(st.sampled_from(DEFECTS))
    noff = draw(st.booleans())
    ambient = draw(st.integers(1, 5)) if noff else 3
    nv, nf = draw(st.integers(3, 7)), draw(st.integers(1, 6))
    sep = draw(SPACE)

    def join(tokens):
        return sep.join(tokens)

    counts = [nv, nf]
    if defect == "count":
        counts[draw(st.integers(0, 1))] += draw(st.sampled_from(
            [1, -1, -counts[0] - 1, -counts[1] - 1]))
    counts = [str(c) for c in counts]
    counts += draw(st.sampled_from([[], ["0"], ["9"], ["6", "tail"]]))

    vertices = []
    for _ in range(nv):
        row = [draw(COORDS) for _ in range(ambient)]
        extra = draw(st.sampled_from([0, 0, 0, 1, 2]))
        row += [draw(st.one_of(COORDS, JUNK)) for _ in range(extra)]
        vertices.append(row)
    faces = []
    for _ in range(nf):
        corners = draw(st.permutations(range(nv)))[:3]
        row = ["3"] + [str(i) for i in corners]
        extra = draw(st.sampled_from([0, 0, 0, 1, 3]))
        row += [str(draw(st.integers(0, 255))) for _ in range(extra)]
        faces.append(row)

    v, f = draw(st.integers(0, nv - 1)), draw(st.integers(0, nf - 1))
    if defect == "short vertex row":
        vertices[v] = vertices[v][:ambient - 1]
    elif defect == "short vertex rows":
        vertices = [row[:ambient - 1] for row in vertices]
    elif defect == "bad coordinate":
        vertices[v][draw(st.integers(0, ambient - 1))] = draw(BAD_NUMBERS)
    elif defect == "face size":
        faces[f][0] = draw(st.sampled_from(["4", "2", "-3", "03", "+3"]))
    elif defect == "short face":
        faces[f] = faces[f][:draw(st.integers(1, 3))]
    elif defect == "face token":
        faces[f][draw(st.integers(0, len(faces[f]) - 1))] = draw(
            st.one_of(JUNK, BAD_NUMBERS))
    elif defect == "extra face token":
        faces[f].append(draw(st.one_of(JUNK, BAD_NUMBERS)))
    elif defect == "bad index":
        faces[f][draw(st.integers(1, 3))] = draw(st.sampled_from(
            ["-1", str(nv), "-0", faces[f][1]]))
    elif defect == "extra vertex row":
        vertices.insert(v, [draw(COORDS) for _ in range(ambient)])
    body = [join(row) for row in vertices + faces]
    if defect == "truncated":
        body = body[:draw(st.integers(0, len(body) - 1))]
    body += draw(st.sampled_from([[], ["trailing junk"], ["3 0 1 2"]]))

    def noisy(rows):
        out = []
        for row in rows:
            out += [draw(NOISE) for _ in range(draw(st.integers(0, 1)))]
            if draw(st.integers(0, 4)) == 0:
                row = draw(SPACE) + row
            if draw(st.integers(0, 4)) == 0:
                row += " # note"
            out.append(row)
        return out

    head = [["nOFF" if noff else "OFF"]]
    if noff:
        if draw(st.booleans()):
            head[0].append(str(ambient))
        else:
            head.append([str(ambient)])
    gaps = [[draw(NOISE) for _ in range(draw(st.integers(0, 1)))]
            for _ in head]
    inline = draw(st.booleans())
    oracle_head, new_head = [], []
    for gap, line in zip(gaps, head):
        oracle_head += gap + [join(line)]
        new_head += gap + [join(line + counts) if line is head[-1]
                           and inline else join(line)]
    oracle_head.append(join(counts))
    if not inline:
        new_head.append(join(counts))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([eol, ""]))
    tail = noisy(body)
    return (eol.join(new_head + tail) + end,
            eol.join(oracle_head + tail) + end, ambient)


@settings(max_examples=300, deadline=None)
@given(off_files())
def test_loader_agrees_with_the_line_parser(tmp_path_factory, files):
    text, oracle_text, ambient = files
    folder = tmp_path_factory.mktemp("off")
    path, oracle_path = folder / "new.off", folder / "oracle.off"
    # newline="" keeps the CRLF line ends as generated
    path.write_text(text, newline="")
    oracle_path.write_text(oracle_text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(load_off, path)
    want = _outcome(line_parser_load_off, oracle_path)
    if want is not None and want[0].shape[1] < ambient:
        want = None  # short vertex rows are refused now (pinned below)
    if want is None or got is None:
        assert got is None and want is None, (text, got, want)
    else:
        assert _same_arrays(got[0], want[0]) and \
            _same_arrays(got[1], want[1]), (text, got, want)


# ---------------------------------------------------------------------------
# pinned cases

VERTICES = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
FACES = "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"
TET_BODY = VERTICES + FACES


def _write(tmp_path, text, name="mesh.off"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("head", [
    "OFF 4 4 6\n", "OFF\n4 4 6\n", "OFF 4 4\n", "OFF # c\n4 4 6\n",
    "nOFF 3 4 4 6\n", "nOFF\n3 4 4 6\n", "nOFF 3\n4 4 6\n",
    "nOFF\n3\n4 4 6\n"])
def test_header_counts_on_the_keyword_line(tmp_path, head):
    mesh = load_off(_write(tmp_path, head + TET_BODY))
    assert mesh.vertices.shape == (4, 3)
    assert mesh.simplices == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@pytest.mark.parametrize("head", [
    "OFF\n-1 4 6\n", "OFF -1 4 6\n", "OFF\n4 -4 6\n", "OFF\n0 4 6\n",
    "nOFF -3\n4 4 6\n", "nOFF 0 4 4 6\n"])
def test_negative_header_counts_are_refused(tmp_path, head):
    with pytest.raises(MeshError, match="header counts must be positive"):
        load_off(_write(tmp_path, head + TET_BODY))


def test_vertex_rows_shorter_than_the_dimension_are_refused(tmp_path):
    path = _write(tmp_path, "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n")
    assert line_parser_load_off(path).vertices.shape == (3, 2)
    with pytest.raises(MeshError, match="need 3 numbers"):
        load_off(path)
    big = _write(tmp_path, "nOFF 1000000000000\n1 1 0\n0 0 0\n3 0 1 2\n")
    with pytest.raises(MeshError, match="need 1000000000000 numbers"):
        load_off(big)


@pytest.mark.parametrize("token", ["0_3", "\u0663", "\uff13"])
@pytest.mark.parametrize("place", [
    "OFF\n4 4 6\n{} 0 0\n1 0 0\n0 1 0\n0 0 1\n" + FACES,
    "OFF\n4 4 6\n" + VERTICES + "3 0 1 2\n3 0 1 {}\n3 0 2 3\n3 1 2 3\n",
    "OFF\n4 4 6\n" + VERTICES + "3 0 1 2 {}\n3 0 1 3\n3 0 2 3\n3 1 2 3\n",
], ids=["vertex", "face index", "extra face column"])
def test_python_only_number_spellings_are_refused(tmp_path, token, place):
    """``float`` and ``int`` read each token as 3 (and ``int("1_0")`` is
    10): digit-group underscores, Arabic-Indic and full-width digits.
    numpy reads none of them, and the loader refuses them everywhere,
    extra face columns included."""
    path = _write(tmp_path, place.format(token))
    assert line_parser_load_off(path).num_vertices == 4
    with pytest.raises(MeshError):
        load_off(path)


def test_extra_columns_and_trailing_lines(tmp_path):
    """Extra vertex columns are ignored whatever they hold; extra face
    columns must be integers, and faces may differ in how many they
    carry; lines after the face block are not read."""
    path = _write(tmp_path, "OFF\n4 4 6\n0 0 0 red\n1 0 0\n0 1 0 1 1\n"
                            "0 0 1\n3 0 1 2 255 0 0\n3 0 1 3\n"
                            "3 0 2 3 +7\n3 1 2 3\n3 9 9\nnot OFF at all\n")
    mesh = load_off(path)
    assert mesh.simplices == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert total_invariant_2(mesh).total == pytest.approx(4 * math.pi)
    for token in ("0.5", "1-2", "+-1", "--1", "2+", "+", "1e3", "x"):
        bad = _write(tmp_path, "OFF\n4 4 6\n" + VERTICES
                     + f"3 0 1 2 7 {token} 7\n3 0 1 3\n3 0 2 3\n3 1 2 3\n")
        with pytest.raises(MeshError, match="3 0 1 2 7 .* 7' holds a token"):
            load_off(bad)


@pytest.mark.parametrize("text", [
    "", "# only a comment\n", "OFF\n", "OFF\n4 4 6\n", "OFF\n4 4 6\n0 0 0\n",
    "OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n",
    "OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n"])
def test_empty_and_truncated_files_fail_quietly(tmp_path, text):
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=re.escape(str(path))):
            load_off(path)


def test_undecodable_bytes_are_a_mesh_error(tmp_path):
    path = tmp_path / "latin.off"
    path.write_bytes(b"OFF\n4 4 6\n\xff\xfe 0 0\n")
    with pytest.raises(MeshError):
        load_off(path)
