import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import read_matrix_csv_reference

from seriation import core
from seriation.core import (
    Permutation,
    check_matrix,
    derive_rng,
    frobenius_sq_dist,
    inverse,
    permute_rows,
    read_matrix_csv,
    read_permutation,
    write_matrix_csv,
    write_permutation,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def small_matrices(max_n=6, max_m=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: arrays(np.float64, (n, m), elements=finite)
        )
    )


def permutations_of(n):
    return st.permutations(list(range(n))).map(
        lambda p: Permutation(np.array(p, dtype=np.int64))
    )


class TestPermutation:
    def test_identity_action(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(permute_rows(Permutation.identity(3), a), a)

    def test_transposition(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = Permutation(np.array([1, 0]))
        assert np.array_equal(permute_rows(p, a), np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_row_i_lands_at_mapping_i(self):
        a = np.arange(12, dtype=np.float64).reshape(4, 3)
        p = Permutation(np.array([2, 0, 3, 1]))
        out = permute_rows(p, a)
        for i in range(4):
            assert np.array_equal(out[p.mapping[i]], a[i])

    def test_inverse_roundtrip(self):
        rng = derive_rng(3)
        a = rng.normal(size=(5, 3))
        p = Permutation.random(5, rng)
        assert np.array_equal(permute_rows(inverse(p), permute_rows(p, a)), a)

    def test_inverse_identity(self):
        assert inverse(Permutation.identity(4)) == Permutation.identity(4)

    def test_three_cycle_inverse(self):
        p = Permutation(np.array([1, 2, 0]))
        assert np.array_equal(inverse(p).mapping, np.array([2, 0, 1]))

    def test_compose_inverse_is_identity(self):
        rng = derive_rng(4)
        p = Permutation.random(7, rng)
        assert Permutation(p.mapping[inverse(p).mapping]) == Permutation.identity(7)
        assert Permutation(inverse(p).mapping[p.mapping]) == Permutation.identity(7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            permute_rows(Permutation.identity(3), np.zeros((4, 2)))

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            Permutation(np.array([0, 1, 3]))

    def test_fractional_entries_rejected(self):
        for bad in ([1.5, 0.5], [0.0, 1.0000001], [np.nan, 0.0], [1e30, 0.0]):
            with pytest.raises(ValueError, match="integers"):
                Permutation(np.array(bad))
        # integral floats are the integers they spell
        assert Permutation(np.array([1.0, 0.0])) == Permutation(np.array([1, 0]))

    # an array length would be shuffled by rng.permutation, not read as n
    @pytest.mark.parametrize("n", [np.array([1, 0]), [2], 2.5, "2"])
    def test_length_must_be_an_integer(self, n):
        for make in (Permutation.identity, lambda n: Permutation.random(n, derive_rng(0))):
            with pytest.raises(ValueError, match="n must be an integer"):
                make(n)

    @pytest.mark.parametrize("bad", [[None], ["1", "0"], [True, False]])
    def test_entries_that_are_no_numbers_rejected(self, bad):
        with pytest.raises(ValueError, match="integers"):
            Permutation(bad)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        permutations_of(n), permutations_of(n),
        arrays(np.float64, (n, 2), elements=finite))))
    def test_compose_action(self, pqa):
        # p after q acts as the one permutation with mapping p.mapping[q.mapping]
        p, q, a = pqa
        assert np.array_equal(
            permute_rows(Permutation(p.mapping[q.mapping]), a),
            permute_rows(p, permute_rows(q, a)),
        )


class TestFrobenius:
    def test_zero_on_equal(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_sq_dist(a, a) == 0.0

    def test_single_entry(self):
        assert frobenius_sq_dist(np.array([[0.0]]), np.array([[3.0]])) == 9.0

    def test_hand_sum(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_sq_dist(a, np.zeros((2, 2))) == 30.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_sq_dist(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            frobenius_sq_dist(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_either_argument(self, bad):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        b[1, 0] = bad
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="not finite"):
                frobenius_sq_dist(*pair)

    def test_overflow_on_finite_inputs(self):
        with pytest.raises(ValueError, match="not finite"):
            frobenius_sq_dist([[1e200]], [[-1e200]])

    def test_string_array_is_not_parsed(self):
        for pair in ((np.array([["1", "2"]]), np.zeros((1, 2))),
                     (np.zeros((1, 2)), np.array([["1", "2"]]))):
            with pytest.raises(ValueError, match="real numbers"):
                frobenius_sq_dist(*pair)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        permutations_of(n),
        arrays(np.float64, (n, 3), elements=finite),
        arrays(np.float64, (n, 3), elements=finite))))
    def test_row_permutation_isometry(self, pab):
        p, a, b = pab
        assert frobenius_sq_dist(permute_rows(p, a), permute_rows(p, b)) == \
            frobenius_sq_dist(a, b)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_matrix(np.array([[np.nan, 0.0]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_matrix(np.array([[np.inf], [0.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros((0, 2)))

    # a cast to float64 would drop the imaginary part or parse the string
    @pytest.mark.parametrize("a", [[[1 + 2j]], np.array([[1 + 2j]]), [["1"]], [[None]]])
    def test_rejects_entries_that_are_no_real_numbers(self, a):
        with pytest.raises(ValueError, match="real numbers"):
            check_matrix(a)


class TestRng:
    def test_same_seed_same_stream(self):
        a = derive_rng(123, 4, 5).normal(size=100)
        b = derive_rng(123, 4, 5).normal(size=100)
        assert a.tobytes() == b.tobytes()

    def test_different_paths_differ(self):
        a = derive_rng(123, 4, 5).normal(size=10)
        b = derive_rng(123, 4, 6).normal(size=10)
        assert not np.array_equal(a, b)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            derive_rng(-1)
        with pytest.raises(ValueError):
            derive_rng(2**64)

    # a fractional seed used to draw the stream of its integer part
    @pytest.mark.parametrize("seed, path", [
        (1.5, ()), (True, ()), (np.bool_(False), ()), ("1", ()), (float("nan"), ()),
        (float("inf"), ()), (None, ()), (1, (2.5,)), (1, (False,)),
    ])
    def test_rejects_non_integer_seeds(self, seed, path):
        with pytest.raises(ValueError, match="must be an integer"):
            derive_rng(seed, *path)

    def test_integral_seeds_keep_their_stream(self):
        expected = derive_rng(7, 3).normal(size=5).tobytes()
        for seed, path in ((7.0, (3,)), (np.int64(7), (np.uint8(3),)), (7, (3.0,))):
            assert derive_rng(seed, *path).normal(size=5).tobytes() == expected


class TestTextFormats:
    def test_matrix_roundtrip(self, tmp_path):
        a = derive_rng(9).normal(size=(4, 3))
        path = tmp_path / "a.csv"
        write_matrix_csv(a, path)
        assert np.array_equal(read_matrix_csv(path), a)

    def test_lf_endings_and_dot_decimal(self, tmp_path):
        path = tmp_path / "a.csv"
        write_matrix_csv(np.array([[0.5, -1.25]]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"0.5,-1.25\n"

    # every finite float64 plus the edge cases: signed zero, subnormals,
    # the ends of the range and integers
    @given(st.integers(1, 5).flatmap(lambda n: st.integers(1, 6).flatmap(
        lambda m: arrays(np.float64, (n, m), elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 0.0, 5e-324, -2.225073858507201e-308,
                             1e308, -1e308, 1.7976931348623157e308]),
            st.integers(-10**17, 10**17).map(float))))))
    def test_matrix_csv_bytes_match_per_value_format(self, tmp_path_factory, a):
        path = tmp_path_factory.mktemp("csv") / "a.csv"
        write_matrix_csv(a, path)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in a)
        assert path.read_bytes() == expected.encode()

    # a few values, signed zeros among them, repeat across row blocks of one
    # row up to the whole matrix: formatting each distinct value of a block
    # once gives the bytes of formatting every entry
    @given(st.integers(1, 40).flatmap(lambda n: st.integers(1, 5).flatmap(
        lambda m: arrays(np.float64, (n, m), elements=st.sampled_from(
            [-0.0, 0.0, 0.1, -2.5, 5e-324, 1.7976931348623157e308, 1 / 3])))),
        st.sampled_from([8, 8 * 7, core._ROW_BLOCK_BYTES]))
    def test_matrix_csv_by_value_bytes(self, a, block_bytes):
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in a)
        out = io.StringIO()
        with mock.patch.object(core, "_ROW_BLOCK_BYTES", block_bytes):
            core._write_csv_by_value(a, out)
        assert out.getvalue() == expected

    # a first column with at most n / 4 distinct values, as in a fitted
    # matrix, takes the by-value writer; a drawn one does not
    @pytest.mark.parametrize("levels, by_value", [(5, True), (6, False)])
    def test_matrix_csv_writer_choice(self, tmp_path, levels, by_value):
        a = np.sort(derive_rng(10).normal(size=(20, 3)), axis=0)
        a[:, 0] = np.arange(20) % levels
        path = tmp_path / "a.csv"
        with mock.patch.object(core, "_write_csv_by_value",
                               wraps=core._write_csv_by_value) as writer:
            write_matrix_csv(a, path)
        assert writer.called == by_value
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in a)
        assert path.read_bytes() == expected.encode()

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_matrix_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, value", [("1_0\n", 10.0), ("\u0661\u0662\n", 12.0)],
                             ids=["underscore", "arabic-indic-digits"])
    def test_python_only_number_forms_rejected(self, tmp_path, text, value):
        # float() reads digit underscores and non-ASCII digits; numpy's parser
        # and the documented format do not
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8")
        assert read_matrix_csv_reference(path).tolist() == [[value]]
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: bad number at line 1"):
            read_matrix_csv(path)

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_matrix_csv(path)

    def test_permutation_roundtrip(self, tmp_path):
        p = Permutation(np.array([2, 0, 1, 3]))
        path = tmp_path / "p.txt"
        write_permutation(p, path)
        assert read_permutation(path) == p
        assert path.read_text() == "2\n0\n1\n3\n"

    @pytest.mark.parametrize("entry", ["99999999999999999999", str(2**63), "x", "1.5",
                                       "1_0", "\u0661", "0x1"])
    def test_bad_permutation_entry_names_path_and_line(self, tmp_path, entry):
        # only ASCII decimal int64 entries; int() would take '1_0' and '١'
        path = tmp_path / "p.txt"
        path.write_text(f"0\n{entry}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: bad entry at line 2"):
            read_permutation(path)

    def test_permutation_not_a_bijection_names_the_path(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n0\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*bijection"):
            read_permutation(path)


# Matrix CSV documents for the differential reader tests: values across
# 1e-300..1e300 written as %.17g or repr, padded fields, blank and
# whitespace-only lines anywhere, LF or CRLF endings. A fault, if given,
# breaks one row so that the file is rejected.
CSV_FAULTS = ("ragged", "x", "trailing-comma", "quoted", "comment", "nan", "empty")

csv_values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([1e-300, -1e-300, 1e300, -1e300, 0.0, -0.0]),
)


@st.composite
def csv_documents(draw, faults=()):
    fault = draw(st.sampled_from(faults)) if faults else None
    n = draw(st.integers(2 if fault == "ragged" else 1, 5))
    m = draw(st.integers(1, 5))
    blank = st.lists(st.sampled_from(["", " ", "\t "]), max_size=2)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    rows = []
    for _ in range(n):
        fmt = draw(st.sampled_from(["%.17g", "%r"]))
        rows.append([draw(pad) + fmt % draw(csv_values) + draw(pad) for _ in range(m)])
    k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    if fault == "ragged":
        if m > 1 and draw(st.booleans()):
            rows[k].pop()
        else:
            rows[k].append("1")
    elif fault == "trailing-comma":
        rows[k].append("")
    elif fault in ("x", "quoted", "comment", "nan"):
        rows[k][j] = {"x": "x", "quoted": f'"{rows[k][j]}"', "comment": f"{rows[k][j]} # c",
                      "nan": "nan"}[fault]
    lines = draw(blank)
    if fault != "empty":
        for i, row in enumerate(rows):
            lines.append(",".join(row))
            lines += draw(blank) if i < n - 1 else []
    lines += draw(blank)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if lines and draw(st.booleans()) else "")


def _write_document(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "a.csv"
    path.write_bytes(text.encode())
    return path


class TestReaderAgainstReference:
    @given(text=csv_documents())
    @example(text="5")
    @example(text="1,2,3\n")
    @example(text="\n\n1e-300\r\n\r\n-1e300\r\n\n")
    def test_accepted_files_read_identically(self, tmp_path_factory, text):
        path = _write_document(tmp_path_factory, text)
        got, want = read_matrix_csv(path), read_matrix_csv_reference(path)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(text=csv_documents(faults=CSV_FAULTS))
    @example(text="")
    @example(text=" \n\n\t\n")
    @example(text="1,2\n1 # c,2\n")
    def test_rejected_files_name_the_same_line(self, tmp_path_factory, text):
        path = _write_document(tmp_path_factory, text)
        errors = []
        for reader in (read_matrix_csv, read_matrix_csv_reference):
            with pytest.raises(ValueError) as info:
                reader(path)
            errors.append(str(info.value))
        assert all(e.startswith(str(path)) for e in errors)
        kinds = [[k for k in ("ragged", "bad number", "empty", "non-finite") if k in e]
                 for e in errors]
        assert kinds[0] == kinds[1] and len(kinds[0]) == 1
        lines = [re.findall(r"at line (\d+)", e) for e in errors]
        assert lines[0] == lines[1]
