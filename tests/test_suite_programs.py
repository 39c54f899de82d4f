"""Tests for the 14-program benchmark suite.

These validate the substrate the whole evaluation rests on: every
program compiles, runs cleanly on every input, produces plausible
output, and exhibits the structural properties the paper's experiments
rely on (compress has 16 functions; xlisp and gs call through pointers;
numerical codes are loop-dominated).
"""

import pytest

from repro.suite import (
    SUITE,
    SUITE_BY_NAME,
    load_program,
    program_inputs,
    program_names,
    run_on_input,
    source_line_count,
)


@pytest.mark.parametrize("name", program_names())
def test_program_compiles(name):
    program = load_program(name)
    assert program.has_function("main")
    assert len(program.cfgs) == len(program.function_names)


@pytest.mark.parametrize("name", program_names())
def test_program_has_at_least_four_inputs(name):
    assert len(program_inputs(name)) >= 4


@pytest.mark.parametrize("name", program_names())
def test_program_runs_cleanly_on_first_input(name):
    stdin = program_inputs(name)[0]
    result = run_on_input(name, stdin, "input1")
    assert result.status == 0
    assert result.stdout  # Every program reports something.
    assert not result.aborted


def test_suite_has_fourteen_programs():
    assert len(SUITE) == 14
    blocks = sum(load_program(entry.name).block_count() for entry in SUITE)
    assert blocks > 1000


def test_every_entry_has_source_and_description():
    for entry in SUITE:
        assert source_line_count(entry.name) > 50
        assert entry.description
        assert entry.category in ("numerical", "symbolic", "indirect")


def test_compress_has_sixteen_functions():
    program = load_program("compress")
    assert len(program.function_names) == 16


def test_compress_roundtrip_verified_on_all_inputs():
    for index, stdin in enumerate(program_inputs("compress"), start=1):
        result = run_on_input("compress", stdin, f"input{index}")
        assert "ratio=" in result.stdout
        assert result.status == 0  # fatal() would exit(1)


def test_xlisp_uses_function_pointers_heavily():
    program = load_program("xlisp")
    graph = program.call_graph
    assert graph.uses_pointer_node()
    assert len(graph.address_taken) >= 12  # the builtin table


def test_gs_most_functions_only_reached_indirectly():
    program = load_program("gs")
    graph = program.call_graph
    directly_called = {
        site.callee
        for site in graph.call_sites()
        if site.callee is not None
    }
    indirect_only = set(graph.address_taken) - directly_called
    # Mirrors the paper's gs: a large fraction of functions have no
    # direct call site at all.
    assert len(indirect_only) >= 15


def test_numerical_programs_are_loop_dominated():
    from repro.cfg import loop_nesting_depth

    for name in ("cholesky", "water", "alvinn"):
        program = load_program(name)
        in_loop = 0
        total = 0
        for cfg in program.cfgs.values():
            depth = loop_nesting_depth(cfg)
            total += len(depth)
            in_loop += sum(1 for d in depth.values() if d > 0)
        assert in_loop / total > 0.4, name


def test_distinct_inputs_produce_distinct_profiles():
    from repro.suite import collect_profiles

    profiles = collect_profiles("compress")
    totals = [p.total_block_executions for p in profiles]
    assert len(set(totals)) == len(totals)


def test_eqntott_truth_table_row_count():
    result = run_on_input(
        "eqntott", "f = a & b;\n", "mini"
    )
    # Two variables -> 4 rows, plus header and summary.
    lines = result.stdout.strip().splitlines()
    table_rows = [line for line in lines if "|" in line][1:]
    assert len(table_rows) == 4


def test_espresso_minimizes_full_cube():
    # All minterms of 3 variables minimize to the single term "---".
    result = run_on_input(
        "espresso", "3\n0 1 2 3 4 5 6 7 -1\n", "full"
    )
    assert "---" in result.stdout
    assert "literals=0" in result.stdout


def test_cc_constant_folding_counted():
    result = run_on_input("cc", "a = 2 + 3;\nprint a;\n", "fold")
    assert "a = 5" in result.stdout
    assert "folded=1" in result.stdout


def test_sc_evaluates_dependencies_in_any_order():
    # B1 depends on A1 defined later.
    result = run_on_input("sc", "B1 = A1 * 2\nA1 = 21\n", "deps")
    assert "B1=42" in result.stdout


def test_awk_counts_matches():
    rules = "/a/ count\n%%\nalpha\nbeta\nxxx\n"
    result = run_on_input("awk", rules, "mini")
    assert "count /a/ = 2" in result.stdout


def test_bison_accepts_grammar_sentences():
    grammar = "S -> a S b\nS -> c\n==\na a c b b\nb a\n"
    result = run_on_input("bison", grammar, "mini")
    assert "accepted=1 rejected=1" in result.stdout


def test_xlisp_evaluates_recursion():
    source = "(define f (lambda (n) (if (< n 1) 0 (+ n (f (- n 1))))))\n(print (f 10))\n"
    result = run_on_input("xlisp", source, "mini")
    assert result.stdout.startswith("55")


def test_gs_executes_operators():
    result = run_on_input("gs", "3 4 add print\n", "mini")
    assert result.stdout.startswith("7")


def test_registry_rejects_unknown_program():
    with pytest.raises(KeyError):
        load_program("doom")


def test_suite_by_name_complete():
    assert set(SUITE_BY_NAME) == set(program_names())
