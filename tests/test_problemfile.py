"""Problem-file grammar: accepted forms, rejections, and error positions."""

import pytest

from hilbertkunz.errors import ParseError
from hilbertkunz.problemfile import ProblemFile, parse_problem, serialize_problem

from conftest import CORPUS

FULL = """\
# quotient ring with a declared-rank module
p = 2
vars = u v w x y z

ring = v*z + w*y, w*x + u*z, u*y + v*x
ideal = u, v, w, x, y, z   # the maximal ideal
module = u; x
rank = 1
dim = 4
n = 1..3
"""


def test_full_file_parses():
    pf = parse_problem(FULL)
    assert pf.p == 2
    assert pf.variables == ("u", "v", "w", "x", "y", "z")
    assert pf.ring_relations == ("v*z + w*y", "w*x + u*z", "u*y + v*x")
    assert pf.ideal == ("u", "v", "w", "x", "y", "z")
    assert pf.module == (("u",), ("x",))
    assert pf.module_rank is None
    assert pf.rank == 1
    assert pf.dim == 4
    assert (pf.n_min, pf.n_max) == (1, 3)
    assert pf.sequence is None


def test_minimal_file_and_whitespace_tolerance():
    pf = parse_problem("p=3\nvars=x\nideal =   x ,  x^2\nn=0..0\n")
    assert pf.p == 3
    assert pf.ideal == ("x", "x^2")
    assert (pf.n_min, pf.n_max) == (0, 0)
    assert pf.ring_relations == ()
    assert pf.module is None


def test_comments_and_blank_lines_ignored():
    text = "\n# header\np = 2 # two\n\nvars = x y\nideal = x, y\n\nn = 1..2\n# end\n"
    pf = parse_problem(text)
    assert pf.p == 2 and pf.ideal == ("x", "y")


def test_multicharacter_variable_names():
    pf = parse_problem("p = 5\nvars = x0 alpha_1\nideal = x0, alpha_1^2\nn = 1..1\n")
    assert pf.variables == ("x0", "alpha_1")


def test_sequence_rows():
    text = "p = 2\nvars = x y\nideal = x, y\nn = 1..2\nsequence = x; y; x + y\n"
    pf = parse_problem(text)
    assert pf.sequence == (("x",), ("y",), ("x + y",))


def test_module_rank_sets_row_width():
    text = (
        "p = 2\nvars = x y\nideal = x, y\nmodule = x, y; y, x^2\n"
        "module_rank = 2\nn = 1..2\n"
    )
    pf = parse_problem(text)
    assert pf.module_rank == 2
    assert pf.module == (("x", "y"), ("y", "x^2"))


# -- rejections with positions ----------------------------------------------


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    return info.value


def test_missing_equals_sign():
    e = err("p = 2\nvars x y\nideal = x\nn = 1..1\n")
    assert "key = value" in str(e)
    assert (e.line, e.column) == (2, 1)


def test_unknown_key():
    e = err("p = 2\nvars = x\nideal = x\nn = 1..1\nfield = Q\n")
    assert "unknown key" in str(e)
    assert (e.line, e.column) == (5, 1)


def test_empty_key():
    assert "unknown key" in str(err(" = 3\n"))


def test_duplicate_key_reports_second_occurrence():
    e = err("p = 2\nvars = x\nideal = x\np = 3\nn = 1..1\n")
    assert "duplicate key 'p'" in str(e)
    assert e.line == 4


def test_empty_value():
    e = err("p = 2\nvars = x\nideal =\nn = 1..1\n")
    assert "empty value for 'ideal'" in str(e)
    assert e.line == 3


def test_missing_required_key():
    e = err("p = 2\nvars = x\nn = 1..1\n")
    assert "missing required key 'ideal'" in str(e)


def test_composite_p_rejected_with_position():
    e = err("p = 4\nvars = x\nideal = x\nn = 1..1\n")
    assert "4 is not prime" in str(e)
    assert (e.line, e.column) == (1, 5)


def test_p_must_be_integer():
    assert "p must be an integer" in str(err("p = two\nvars = x\nideal = x\nn = 1..1\n"))


def test_p_range_cap():
    assert "p must be below" in str(err("p = 65537\nvars = x\nideal = x\nn = 1..1\n"))


def test_bad_variable_name():
    assert "bad variable name '2x'" in str(err("p = 2\nvars = 2x\nideal = x\nn = 1..1\n"))


def test_repeated_variable():
    assert "repeated variable" in str(err("p = 2\nvars = x x\nideal = x\nn = 1..1\n"))


def test_bad_polynomial_position_inside_ideal():
    # column 12 is the q in `ideal = x, q`
    e = err("p = 2\nvars = x y\nideal = x, q\nn = 1..1\n")
    assert (e.line, e.column) == (3, 12)


def test_power_needs_explicit_caret():
    # x5 reads as a single unknown name, not x^5
    e = err("p = 2\nvars = x\nideal = x5\nn = 1..1\n")
    assert "x5" in str(e)
    assert e.line == 3


def test_empty_polynomial_entry():
    assert "empty polynomial entry" in str(
        err("p = 2\nvars = x y\nideal = x,, y\nn = 1..1\n")
    )


def test_empty_module_row():
    assert "empty row" in str(
        err("p = 2\nvars = x y\nideal = x, y\nmodule = x;; y\nn = 1..1\n")
    )


def test_module_rank_must_be_positive():
    e = err(
        "p = 2\nvars = x\nideal = x\nmodule = x\nmodule_rank = 0\nn = 1..1\n"
    )
    assert "module_rank must be positive" in str(e)


def test_rank_must_be_nonnegative():
    assert "rank must be nonnegative" in str(
        err("p = 2\nvars = x\nideal = x\nmodule = x\nrank = -1\nn = 1..1\n")
    )


def test_dim_must_be_nonnegative():
    assert "dim must be nonnegative" in str(
        err("p = 2\nvars = x\nideal = x\ndim = -2\nn = 1..1\n")
    )


@pytest.mark.parametrize("bad", ["1-3", "1..", "..3", "a..b", "3..1"])
def test_bad_n_ranges(bad):
    e = err(f"p = 2\nvars = x\nideal = x\nn = {bad}\n")
    assert "n " in str(e) or "n range" in str(e)
    assert e.line == 4


def test_module_row_width_against_module_rank():
    e = err(
        "p = 2\nvars = x y\nideal = x, y\nmodule = x, y; x\n"
        "module_rank = 2\nn = 1..1\n"
    )
    assert "module row has 1 entries, expected 2" in str(e)


def test_module_row_width_defaults_to_one():
    e = err("p = 2\nvars = x y\nideal = x, y\nmodule = x, y\nn = 1..1\n")
    assert "module row has 2 entries, expected 1" in str(e)


def test_sequence_width_follows_module_row_count():
    # module has two rows, so M is presented on two generators and
    # sequence entries must have two components
    base = "p = 2\nvars = x y\nideal = x, y\nmodule = x; y\nn = 1..1\n"
    parse_problem(base + "sequence = x, y\n")
    e = err(base + "sequence = x\n")
    assert "sequence row has 1 entries, expected 2" in str(e)


def test_sequence_width_without_module_is_one():
    base = "p = 2\nvars = x y\nideal = x, y\nn = 1..1\n"
    parse_problem(base + "sequence = x; y\n")
    e = err(base + "sequence = x, y\n")
    assert "sequence row has 2 entries, expected 1" in str(e)


# -- serialization ------------------------------------------------------------


def test_serialize_parse_fixpoint():
    pf = parse_problem(FULL)
    text = serialize_problem(pf)
    again = parse_problem(text)
    assert again == pf
    assert serialize_problem(again) == text


def test_serialize_covers_every_key():
    pf = ProblemFile(
        p=3,
        variables=("x", "y"),
        ring_relations=("x^2 + y^2",),
        ideal=("x", "y"),
        module=(("x", "y"), ("y", "x")),
        module_rank=2,
        rank=0,
        dim=1,
        n_min=2,
        n_max=5,
        sequence=(("x", "0"),),
    )
    text = serialize_problem(pf)
    assert parse_problem(text) == pf


def test_corpus_files_parse():
    stems = sorted(f.stem for f in CORPUS.glob("*.hk"))
    assert len(stems) == 9
    for stem in stems:
        pf = parse_problem((CORPUS / f"{stem}.hk").read_text())
        assert 0 <= pf.n_min < pf.n_max
