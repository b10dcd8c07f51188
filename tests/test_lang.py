"""Tests for the mini-C front-end: lexer, parser, type checker, interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import (
    Interpreter,
    ParseError,
    RuntimeBudgetExceeded,
    TypeCheckError,
    check_program,
    parse_program,
)
from repro.lang import ast
from repro.lang.lexer import LexError, Token, tokenize
from repro.lang.pretty import format_program
from repro.lang.semantics import apply_binary, apply_unary, wrap
from repro.lang.transform import (
    constants_on_line,
    operators_on_line,
    replace_constant_on_line,
    replace_operator_on_line,
)

MAX_PROGRAM = """
int max3(int a, int b, int c) {
    int best = a;
    if (b > best) { best = b; }
    if (c > best) { best = c; }
    return best;
}

int main(int x, int y, int z) {
    return max3(x, y, z);
}
"""

LOOP_PROGRAM = """
int main(int n) {
    int total = 0;
    int i = 0;
    while (i < n) {
        total = total + i;
        i = i + 1;
    }
    assert(total >= 0);
    return total;
}
"""


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("int x = 42; // comment\n x <= 3")
        kinds = [(token.kind, token.text) for token in tokens]
        assert ("keyword", "int") in kinds
        assert ("ident", "x") in kinds
        assert ("int", "42") in kinds
        assert ("symbol", "<=") in kinds
        assert kinds[-1] == ("eof", "")

    def test_line_numbers(self):
        tokens = tokenize("int a;\nint b;\n")
        b_token = [token for token in tokens if token.text == "b"][0]
        assert b_token.line == 2

    def test_block_comments_skipped(self):
        tokens = tokenize("/* original: x = 1 */ x = 2;")
        texts = [token.text for token in tokens]
        assert "1" not in texts
        assert "2" in texts

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("int x = @;")


def reference_tokens(source: str) -> list[Token]:
    """The character-by-character lexer the regex one replaced, kept as the
    reference its token streams and errors must equal."""
    keywords = {"int", "void", "if", "else", "while", "return", "assert", "assume", "true", "false"}
    symbols = ["<=", ">=", "==", "!=", "&&", "||", *"<>=!+-*/%(){}[];,?:"]
    tokens = []
    line, position, length = 1, 0, len(source)
    while position < length:
        char = source[position]
        if char == "\n":
            line += 1
            position += 1
        elif char in " \t\r":
            position += 1
        elif source.startswith("//", position):
            end = source.find("\n", position)
            position = length if end == -1 else end
        elif source.startswith("/*", position):
            end = source.find("*/", position + 2)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", position, end)
            position = end + 2
        elif char.isdigit():
            start = position
            while position < length and source[position].isdigit():
                position += 1
            tokens.append(Token("int", source[start:position], line))
        elif char.isalpha() or char == "_":
            start = position
            while position < length and (
                source[position].isalnum() or source[position] == "_"
            ):
                position += 1
            text = source[start:position]
            tokens.append(Token("keyword" if text in keywords else "ident", text, line))
        else:
            for symbol in symbols:
                if source.startswith(symbol, position):
                    tokens.append(Token("symbol", symbol, line))
                    position += len(symbol)
                    break
            else:
                raise LexError(f"unexpected character {char!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens


def lexed(lex, source: str):
    """The token list, or the LexError's message and line."""
    try:
        return lex(source)
    except LexError as exc:
        return (str(exc), exc.line)


def lexer_corpus() -> dict[str, str]:
    from pathlib import Path

    from repro.siemens import TCAS_SOURCE, tcas_faulty_source
    from repro.siemens.loop_corpus import LOOP_BENCHMARKS
    from repro.siemens.programs import LARGE_BENCHMARKS
    from repro.siemens.tcas import tcas_versions

    sources = {"tcas": TCAS_SOURCE}
    for version in tcas_versions():
        sources[f"tcas-{version}"] = tcas_faulty_source(version)
    for benchmark in LARGE_BENCHMARKS:
        sources[benchmark.name] = "\n".join(benchmark.source_lines) + "\n"
        sources[f"{benchmark.name}-faulty"] = "\n".join(benchmark.faulty_lines()) + "\n"
    examples = Path(__file__).resolve().parent.parent / "examples"
    for example in sorted(examples.glob("*.mc")):
        sources[example.name] = example.read_text()
    for benchmark in LOOP_BENCHMARKS:
        sources[benchmark.name] = benchmark.source
    return sources


class TestLexerMatchesTheReference:
    def test_corpus_token_streams(self):
        corpus = lexer_corpus()
        assert len(corpus) > 50
        for name, source in corpus.items():
            assert lexed(tokenize, source) == lexed(reference_tokens, source), name

    @pytest.mark.parametrize(
        "source",
        [
            "int x = @;",
            "int x;\n\n  y = 1 # 2;",
            "int a;\n/* never\nclosed",
            "/*/ still open */ x /*/",
            "a\t\r\n",
            "x\fy",
            "\u00a0",
        ],
    )
    def test_errors_and_edge_cases(self, source):
        assert lexed(tokenize, source) == lexed(reference_tokens, source)

    @pytest.mark.parametrize(
        "source", ["int x\u00b2 = 12\u00b2;", "12\u00e9 \u00e9 \u0663\u0664 _\u00e9 \u00bd"]
    )
    def test_non_ascii_words_follow_the_str_predicates(self, source):
        assert lexed(tokenize, source) == lexed(reference_tokens, source)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                list("ab_19 \n\t\r/*+-<>=!&|;(){}[]?:,.%@\u00e9\u00b2")
                + ["int", "while", "//", "/*", "*/"]
            ),
            max_size=40,
        )
    )
    def test_random_sources(self, pieces):
        source = "".join(pieces)
        assert lexed(tokenize, source) == lexed(reference_tokens, source)


class TestParser:
    def test_parse_functions_and_globals(self):
        program = parse_program(MAX_PROGRAM)
        assert set(program.functions) == {"max3", "main"}
        assert program.functions["max3"].params == ("a", "b", "c")
        assert program.functions["main"].returns_value

    def test_statement_lines_recorded(self):
        program = parse_program(LOOP_PROGRAM)
        lines = program.statement_lines()
        # The while header and the two body assignments are distinct lines.
        assert len(lines) >= 5

    def test_global_array_with_initializer(self):
        program = parse_program("int thresholds[3] = {400, 500, 640};\nint main() { return thresholds[1]; }")
        decl = program.globals[0]
        assert isinstance(decl, ast.ArrayDecl)
        assert decl.size == 3
        assert len(decl.init) == 3

    def test_ternary_and_logical_operators(self):
        program = parse_program(
            "int main(int a, int b) { return (a > b ? a : b) && 1 || 0; }"
        )
        assert "main" in program.functions

    def test_else_if_chain(self):
        source = """
        int main(int x) {
            int result = 0;
            if (x == 1) { result = 10; }
            else if (x == 2) { result = 20; }
            else { result = 30; }
            return result;
        }
        """
        program = parse_program(source)
        interp = Interpreter(program)
        assert interp.run([2]).return_value == 20

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("int main() { int x = 1 return x; }")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse_program("int main() { if (1) { return 0; }")

    def test_unexpected_top_level(self):
        with pytest.raises(ParseError):
            parse_program("float main() { return 0; }")

    def test_parse_error_carries_line(self):
        try:
            parse_program("int main() {\n  x = ;\n}")
        except ParseError as error:
            assert error.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a ParseError")


class TestTypeChecker:
    def test_accepts_valid_program(self):
        check_program(parse_program(MAX_PROGRAM))

    def test_undeclared_variable(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("int main() { return missing; }"))

    def test_undeclared_array(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("int main() { return values[0]; }"))

    def test_wrong_arity_call(self):
        source = "int f(int a) { return a; } int main() { return f(1, 2); }"
        with pytest.raises(TypeCheckError):
            check_program(parse_program(source))

    def test_undefined_function(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("int main() { return g(1); }"))

    def test_void_function_returning_value(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("void f() { return 3; } int main() { return 0; }"))

    def test_array_used_as_scalar(self):
        source = "int a[3]; int main() { return a; }"
        with pytest.raises(TypeCheckError):
            check_program(parse_program(source))


class TestInterpreter:
    def test_max3(self):
        interp = Interpreter(parse_program(MAX_PROGRAM))
        assert interp.run([3, 9, 5]).return_value == 9
        assert interp.run([10, 2, 3]).return_value == 10

    def test_loop_sum(self):
        interp = Interpreter(parse_program(LOOP_PROGRAM))
        result = interp.run([5])
        assert result.return_value == 10
        assert result.passed

    def test_named_inputs(self):
        interp = Interpreter(parse_program(LOOP_PROGRAM))
        assert interp.run({"n": 4}).return_value == 6

    def test_wrong_input_count(self):
        interp = Interpreter(parse_program(LOOP_PROGRAM))
        with pytest.raises(ValueError):
            interp.run([1, 2])

    def test_assertion_failure_reported_with_line(self):
        source = "int main(int x) {\n    assert(x < 10);\n    return x;\n}"
        result = Interpreter(parse_program(source)).run([50])
        assert result.assertion_failed
        assert result.failed_line == 2
        assert result.failure_kind == "assertion"

    def test_assume_stops_execution(self):
        source = "int main(int x) { assume(x > 0); assert(x > 0); return x; }"
        result = Interpreter(parse_program(source)).run([-5])
        assert result.assumption_violated
        assert not result.assertion_failed

    def test_print_int_collects_outputs(self):
        source = "int main(int x) { print_int(x); print_int(x + 1); return x + 2; }"
        result = Interpreter(parse_program(source)).run([10])
        assert result.outputs == [10, 11]
        assert result.observable == (10, 11, 12)

    def test_global_state_and_arrays(self):
        source = """
        int counter = 5;
        int table[3] = {7, 8, 9};
        void bump() { counter = counter + 1; }
        int main(int i) {
            bump();
            bump();
            return table[i] + counter;
        }
        """
        result = Interpreter(parse_program(source)).run([2])
        assert result.return_value == 9 + 7

    def test_array_bounds_checked_when_enabled(self):
        source = "int a[3];\nint main(int i) {\n    return a[i];\n}"
        program = parse_program(source)
        checked = Interpreter(program, check_bounds=True).run([5])
        assert checked.assertion_failed
        assert checked.failure_kind == "array bounds"
        unchecked = Interpreter(program, check_bounds=False).run([5])
        assert unchecked.passed

    def test_short_circuit_evaluation(self):
        # Division by zero is defined as 0, but short-circuit still matters
        # for function calls with side effects.
        source = """
        int hits = 0;
        int bump() { hits = hits + 1; return 1; }
        int main(int x) {
            int ignore = (x > 0) || bump();
            int also = (x > 0) && bump();
            return hits;
        }
        """
        assert Interpreter(parse_program(source)).run([5]).return_value == 1
        assert Interpreter(parse_program(source)).run([-5]).return_value == 1

    def test_recursion(self):
        source = """
        int fact(int n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        int main(int n) { return fact(n); }
        """
        assert Interpreter(parse_program(source)).run([5]).return_value == 120

    def test_step_budget(self):
        source = "int main() { while (1) { int x = 0; } return 0; }"
        with pytest.raises(RuntimeBudgetExceeded):
            Interpreter(parse_program(source), max_steps=1000).run([])

    def test_nondet_values(self):
        source = "int main() { int a = nondet(); int b = nondet(); return a + b; }"
        result = Interpreter(parse_program(source)).run([], nondet_values=[4, 6])
        assert result.return_value == 10

    def test_fixed_width_wraparound(self):
        source = "int main(int x) { return x + 1; }"
        result = Interpreter(parse_program(source), width=8).run([127])
        assert result.return_value == -128

    def test_ternary(self):
        source = "int main(int a, int b) { return a > b ? a : b; }"
        interp = Interpreter(parse_program(source))
        assert interp.run([3, 7]).return_value == 7
        assert interp.run([9, 2]).return_value == 9


class TestPrettyPrinter:
    def test_round_trip_preserves_behaviour(self):
        program = parse_program(MAX_PROGRAM)
        regenerated = parse_program(format_program(program))
        original = Interpreter(program)
        round_tripped = Interpreter(regenerated)
        for inputs in ([1, 2, 3], [9, 4, 6], [0, 0, 0], [-3, -9, -1]):
            assert original.run(inputs).return_value == round_tripped.run(inputs).return_value

    def test_round_trip_loop_program(self):
        program = parse_program(LOOP_PROGRAM)
        regenerated = parse_program(format_program(program))
        assert Interpreter(regenerated).run([6]).return_value == 15


class TestTransform:
    SOURCE = "\n".join(
        [
            "int main(int index) {",        # line 1
            "    if (index != 1) {",        # line 2
            "        index = 2;",           # line 3
            "    } else {",                 # line 4
            "        index = index + 2;",   # line 5
            "    }",
            "    return index;",
            "}",
        ]
    )

    def test_constants_on_line(self):
        program = parse_program(self.SOURCE)
        assert constants_on_line(program, 5) == [2]
        assert constants_on_line(program, 3) == [2]
        assert constants_on_line(program, 7) == []

    def test_operators_on_line(self):
        program = parse_program(self.SOURCE)
        assert operators_on_line(program, 2) == ["!="]
        assert operators_on_line(program, 5) == ["+"]

    def test_replace_constant(self):
        program = parse_program(self.SOURCE)
        patched = replace_constant_on_line(program, 5, 2, 1)
        assert Interpreter(patched).run([1]).return_value == 2
        # Original program is untouched.
        assert Interpreter(program).run([1]).return_value == 3
        # The constant on line 3 is not affected.
        assert Interpreter(patched).run([7]).return_value == 2

    def test_replace_operator(self):
        program = parse_program(self.SOURCE)
        patched = replace_operator_on_line(program, 2, "!=", "==")
        assert Interpreter(patched).run([1]).return_value == 2
        assert Interpreter(patched).run([5]).return_value == 7


class TestSemantics:
    def test_division_truncates_toward_zero(self):
        assert apply_binary("/", 7, 2) == 3
        assert apply_binary("/", -7, 2) == -3
        assert apply_binary("%", -7, 2) == -1

    def test_division_by_zero_defined(self):
        assert apply_binary("/", 5, 0) == 0
        assert apply_binary("%", 5, 0) == 5

    def test_unary(self):
        assert apply_unary("-", 5) == -5
        assert apply_unary("!", 0) == 1
        assert apply_unary("!", 17) == 0

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_comparisons_match_python(self, a, b):
        assert apply_binary("<", a, b) == int(a < b)
        assert apply_binary(">=", a, b) == int(a >= b)
        assert apply_binary("==", a, b) == int(a == b)

    @given(st.integers(-(2**20), 2**20))
    @settings(max_examples=200, deadline=None)
    def test_wrap_is_idempotent_and_in_range(self, value):
        wrapped = wrap(value)
        assert -(2**15) <= wrapped < 2**15
        assert wrap(wrapped) == wrapped
        assert (wrapped - value) % (2**16) == 0


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(-300, 300),
    b=st.integers(-300, 300),
    c=st.integers(-300, 300),
)
def test_interpreter_matches_python_semantics_on_max3(a, b, c):
    interp = Interpreter(parse_program(MAX_PROGRAM))
    assert interp.run([a, b, c]).return_value == max(a, b, c)


class TestTypecheckErrorPaths:
    """The semantic checks that were previously almost untested."""

    def test_duplicate_global_declarations(self):
        source = "int a = 1;\nint a[4];\nint main() { return 0; }"
        with pytest.raises(TypeCheckError, match="declared twice"):
            check_program(parse_program(source))

    def test_builtin_arity_mismatch(self):
        with pytest.raises(TypeCheckError, match="nondet"):
            check_program(parse_program("int main() { return nondet(1); }"))

    def test_assignment_to_undeclared_variable(self):
        source = "int main() {\n    ghost = 3;\n    return 0;\n}"
        with pytest.raises(TypeCheckError) as excinfo:
            check_program(parse_program(source))
        assert excinfo.value.line == 2

    def test_assignment_to_undeclared_array(self):
        with pytest.raises(TypeCheckError, match="undeclared array"):
            check_program(parse_program("int main() { ghost[0] = 1; return 0; }"))

    def test_scalar_indexed_as_array(self):
        source = "int main() {\n    int s = 1;\n    return s[0];\n}"
        with pytest.raises(TypeCheckError, match="undeclared array"):
            check_program(parse_program(source))

    def test_errors_in_nested_bodies_are_found(self):
        source = (
            "int main(int x) {\n"
            "    while (x > 0) {\n"
            "        if (x > 5) {\n"
            "            oops = 1;\n"
            "        }\n"
            "        x = x - 1;\n"
            "    }\n"
            "    return x;\n"
            "}"
        )
        with pytest.raises(TypeCheckError) as excinfo:
            check_program(parse_program(source))
        assert excinfo.value.line == 4

    def test_error_message_carries_line_prefix(self):
        with pytest.raises(TypeCheckError, match="line 1"):
            check_program(parse_program("int main() { return missing; }"))


class TestStructuredDiagnostics:
    """Front-end failures flow through the shared Diagnostic shape."""

    def test_type_error_to_diagnostic(self):
        from repro.lang.diagnostics import ERROR

        try:
            check_program(parse_program("int main() {\n    return missing;\n}"))
        except TypeCheckError as exc:
            diagnostic = exc.to_diagnostic()
        assert diagnostic.severity == ERROR
        assert diagnostic.code == "type-error"
        assert diagnostic.line == 2
        assert "missing" in diagnostic.message

    def test_parse_error_to_diagnostic(self):
        from repro.lang.diagnostics import ERROR

        with pytest.raises(ParseError) as excinfo:
            parse_program("int main() {\n    int x = ;\n}")
        diagnostic = excinfo.value.to_diagnostic()
        assert diagnostic.severity == ERROR
        assert diagnostic.code == "parse-error"
        assert diagnostic.line == 2

    def test_wire_round_trip(self):
        from repro.lang.diagnostics import Diagnostic, diagnostics_to_wire

        diagnostic = Diagnostic(
            line=7, severity="warning", code="overflow", message="m", function="f"
        )
        wire = diagnostics_to_wire([diagnostic])
        assert wire == [diagnostic.to_wire()]
        assert Diagnostic.from_wire(wire[0]) == diagnostic

    def test_render_shape(self):
        from repro.lang.diagnostics import Diagnostic

        diagnostic = Diagnostic(
            line=3, severity="error", code="type-error", message="bad", function="main"
        )
        assert diagnostic.render("prog.mc") == (
            "prog.mc:3: error: [type-error] bad in main()"
        )

    def test_unknown_severity_rejected(self):
        from repro.lang.diagnostics import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic(line=1, severity="fatal", code="x", message="y")
