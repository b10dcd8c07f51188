"""The larger Siemens-style benchmarks of Table 3.

tot_info, print_tokens, schedule and schedule2 are re-implemented as compact
mini-C programs that keep the characteristics the paper relies on: loops,
procedure calls, recursion (print_tokens), array-based state (the
schedulers) and plenty of computation that is irrelevant to the checked
output — which is what the trace-reduction techniques remove.  Each
benchmark carries one injected fault and names the reduction technique the
paper applied to it (S = slicing, C = concolic simulation, D = delta
debugging).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.lang import Interpreter, ast, check_program, parse_program
from repro.spec import Specification


@dataclass(frozen=True)
class LargeBenchmark:
    """One row of Table 3."""

    name: str
    reduction: str  # e.g. "S", "C", "DS"
    source_lines: tuple[str, ...]
    patches: tuple[tuple[int, str], ...]
    failing_test: tuple[int, ...]
    concretize: tuple[str, ...] = ()
    description: str = ""

    @property
    def fault_lines(self) -> tuple[int, ...]:
        return tuple(line for line, _ in self.patches)

    def reference_program(self) -> ast.Program:
        return _parse(self.name, self.source_lines)

    def faulty_program(self) -> ast.Program:
        return _parse(f"{self.name}-faulty", self.faulty_lines())

    def faulty_lines(self) -> tuple[str, ...]:
        """The source lines with the seeded faults patched in."""
        lines = list(self.source_lines)
        for line_number, replacement in self.patches:
            lines[line_number - 1] = replacement
        return tuple(lines)

    def golden_output(self, test: tuple[int, ...] | None = None) -> tuple[int, ...]:
        interpreter = Interpreter(self.reference_program())
        return interpreter.run(list(test or self.failing_test)).observable

    def specification(self, test: tuple[int, ...] | None = None) -> Specification:
        return Specification.golden_output(self.golden_output(test))

    def fails(self, test: list[int]) -> bool:
        """Does the faulty program deviate from the golden output on ``test``?"""
        golden = self.golden_output(tuple(test))
        result = Interpreter(self.faulty_program()).run(test)
        return result.assertion_failed or result.observable != golden


@lru_cache(maxsize=None)
def _parse(name: str, lines: tuple[str, ...]) -> ast.Program:
    program = parse_program("\n".join(lines) + "\n", name=name)
    check_program(program)
    return program


# --------------------------------------------------------------------- tot_info

_TOT_INFO_LINES = (
    "int table[12];",                                                       # 1
    "int row_total[4];",                                                    # 2
    "int col_total[3];",                                                    # 3
    "void fill_table(int rows, int cols, int seed) {",                      # 4
    "    int i = 0;",                                                       # 5
    "    while (i < rows * cols) {",                                        # 6
    "        table[i] = seed + i * 3 + 1;",                                 # 7
    "        i = i + 1;",                                                   # 8
    "    }",                                                                # 9
    "}",                                                                    # 10
    "int info_statistic(int rows, int cols) {",                             # 11
    "    int grand = 0;",                                                   # 12
    "    int info = 0;",                                                    # 13
    "    int r = 0;",                                                       # 14
    "    while (r < rows) {",                                               # 15
    "        int c = 0;",                                                   # 16
    "        row_total[r] = 0;",                                            # 17
    "        while (c < cols) {",                                           # 18
    "            row_total[r] = row_total[r] + table[r * cols + c];",       # 19
    "            c = c + 1;",                                               # 20
    "        }",                                                            # 21
    "        grand = grand + row_total[r];",                                # 22
    "        r = r + 1;",                                                   # 23
    "    }",                                                                # 24
    "    int c2 = 0;",                                                      # 25
    "    while (c2 < cols) {",                                              # 26
    "        int r2 = 0;",                                                  # 27
    "        col_total[c2] = 0;",                                           # 28
    "        while (r2 < rows) {",                                          # 29
    "            col_total[c2] = col_total[c2] + table[r2 * cols + c2];",   # 30
    "            r2 = r2 + 1;",                                             # 31
    "        }",                                                            # 32
    "        c2 = c2 + 1;",                                                 # 33
    "    }",                                                                # 34
    "    int r3 = 0;",                                                      # 35
    "    while (r3 < rows) {",                                              # 36
    "        int c3 = 0;",                                                  # 37
    "        while (c3 < cols) {",                                          # 38
    "            int cell = table[r3 * cols + c3];",                        # 39
    "            int expected = row_total[r3] + col_total[c3];",            # 40
    "            int diff = cell - expected;",                              # 41
    "            info = info + diff * 2 + 3;",                              # 42
    "            c3 = c3 + 1;",                                             # 43
    "        }",                                                            # 44
    "        r3 = r3 + 1;",                                                 # 45
    "    }",                                                                # 46
    "    return info;",                                                     # 47
    "}",                                                                    # 48
    "int scratch_statistics(int rows, int cols) {",                         # 49
    "    int mean = 0;",                                                    # 50
    "    int i = 0;",                                                       # 51
    "    int spread = 0;",                                                  # 52
    "    while (i < rows * cols) {",                                        # 53
    "        mean = mean + table[i];",                                      # 54
    "        spread = spread + table[i] * table[i];",                       # 55
    "        i = i + 1;",                                                   # 56
    "    }",                                                                # 57
    "    return spread / (mean + 1);",                                      # 58
    "}",                                                                    # 59
    "int main(int rows, int cols, int seed) {",                             # 60
    "    int info = 0;",                                                    # 61
    "    int unused = 0;",                                                  # 62
    "    assume(rows > 0);",                                                # 63
    "    assume(cols > 0);",                                                # 64
    "    if (rows * cols > 8) {",                                           # 65
    "        return 0 - 1;",                                                # 66
    "    }",                                                                # 67
    "    fill_table(rows, cols, seed);",                                    # 68
    "    unused = scratch_statistics(rows, cols);",                         # 69
    "    info = info_statistic(rows, cols);",                               # 70
    "    return info;",                                                     # 71
    "}",                                                                    # 72
)

TOT_INFO = LargeBenchmark(
    name="tot_info",
    reduction="S",
    source_lines=_TOT_INFO_LINES,
    # Wrong constant in the conditional checking the product of rows and
    # columns (the paper's description of the tot_info fault).
    patches=((65, "    if (rows * cols > 11) {"),),
    failing_test=(3, 3, 7),
    description="constant fault in the rows*cols bounds check",
)


# ----------------------------------------------------------------- print_tokens

_PRINT_TOKENS_LINES = (
    "int input[16];",                                                       # 1
    "int length = 16;",                                                     # 2
    "void fill_input(int seed) {",                                          # 3
    "    int i = 0;",                                                       # 4
    "    while (i < length) {",                                             # 5
    "        input[i] = (seed * (i + 7)) % 75 + 48;",                       # 6
    "        i = i + 1;",                                                   # 7
    "    }",                                                                # 8
    "}",                                                                    # 9
    "int skip_separators(int pos) {",                                       # 10
    "    if (pos >= length) {",                                             # 11
    "        return pos;",                                                  # 12
    "    }",                                                                # 13
    "    if (input[pos] == 59 || input[pos] == 58) {",                      # 14
    "        return skip_separators(pos + 1);",                             # 15
    "    }",                                                                # 16
    "    return pos;",                                                      # 17
    "}",                                                                    # 18
    "int is_digit(int ch) {",                                               # 19
    "    return ch >= 48 && ch <= 57;",                                     # 20
    "}",                                                                    # 21
    "int is_alpha(int ch) {",                                               # 22
    "    return ch >= 65 && ch <= 122;",                                    # 23
    "}",                                                                    # 24
    "int main(int seed) {",                                                 # 25
    "    int numerals = 0;",                                                # 26
    "    int words = 0;",                                                   # 27
    "    int specials = 0;",                                                # 28
    "    int pos = 0;",                                                     # 29
    "    fill_input(seed);",                                                # 30
    "    while (pos < length) {",                                           # 31
    "        int start = skip_separators(pos);",                            # 32
    "        if (start >= length) {",                                       # 33
    "            pos = length;",                                            # 34
    "        } else {",                                                     # 35
    "            int ch = input[start];",                                   # 36
    "            if (ch >= 48 && ch <= 56) {",                              # 37  (fault site)
    "                numerals = numerals + 1;",                             # 38
    "            } else {",                                                 # 39
    "                if (is_alpha(ch)) {",                                  # 40
    "                    words = words + 1;",                               # 41
    "                } else {",                                             # 42
    "                    specials = specials + 1;",                         # 43
    "                }",                                                    # 44
    "            }",                                                        # 45
    "            pos = start + 1;",                                         # 46
    "        }",                                                            # 47
    "    }",                                                                # 48
    "    print_int(numerals);",                                             # 49
    "    print_int(words);",                                                # 50
    "    return specials;",                                                 # 51
    "}",                                                                    # 52
)

_PRINT_TOKENS_CORRECT_37 = "            if (ch >= 48 && ch <= 57) {"

PRINT_TOKENS = LargeBenchmark(
    name="print_tokens",
    reduction="C",
    source_lines=tuple(
        _PRINT_TOKENS_CORRECT_37 if index == 36 else line
        for index, line in enumerate(_PRINT_TOKENS_LINES)
    ),
    # The faulty version classifies the digit '9' as a word: the upper bound
    # of the numeral comparison is off by one.
    patches=((37, "            if (ch >= 48 && ch <= 56) {"),),
    failing_test=(13,),
    concretize=("fill_input", "skip_separators", "is_digit"),
    description="off-by-one in the numeral classification bound",
)


# --------------------------------------------------------------------- schedule

_SCHEDULE_LINES = (
    "int prio[8];",                                                         # 1
    "int alive[8];",                                                        # 2
    "int count = 0;",                                                       # 3
    "int finished = 0;",                                                    # 4
    "void new_process(int priority) {",                                     # 5
    "    if (count < 8) {",                                                 # 6
    "        prio[count] = priority;",                                      # 7
    "        alive[count] = 1;",                                            # 8
    "        count = count + 1;",                                           # 9
    "    }",                                                                # 10
    "}",                                                                    # 11
    "void upgrade_first(int boost) {",                                      # 12
    "    int i = 0;",                                                       # 13
    "    while (i < count) {",                                              # 14
    "        if (alive[i] == 1) {",                                         # 15
    "            prio[i] = prio[i] + boost;",                               # 16
    "            i = count;",                                               # 17
    "        } else {",                                                     # 18
    "            i = i + 1;",                                               # 19
    "        }",                                                            # 20
    "    }",                                                                # 21
    "}",                                                                    # 22
    "void finish_highest() {",                                              # 23
    "    int best = 0 - 1;",                                                # 24
    "    int best_prio = 0 - 1;",                                           # 25
    "    int i = 0;",                                                       # 26
    "    while (i < count) {",                                              # 27
    "        if (alive[i] == 1 && prio[i] > best_prio) {",                  # 28
    "            best = i;",                                                # 29
    "            best_prio = prio[i];",                                     # 30
    "        }",                                                            # 31
    "        i = i + 1;",                                                   # 32
    "    }",                                                                # 33
    "    if (best >= 0) {",                                                 # 34
    "        alive[best] = 0;",                                             # 35
    "        finished = finished + 1;",                                     # 36
    "    }",                                                                # 37
    "}",                                                                    # 38
    "void flush_all() {",                                                   # 39
    "    int i = 0;",                                                       # 40
    "    while (i < count) {",                                              # 41  (fault site)
    "        if (alive[i] == 1) {",                                         # 42
    "            alive[i] = 0;",                                            # 43
    "            finished = finished + 1;",                                 # 44
    "        }",                                                            # 45
    "        i = i + 1;",                                                   # 46
    "    }",                                                                # 47
    "}",                                                                    # 48
    "void run_command(int command) {",                                      # 49
    "    if (command == 1) {",                                              # 50
    "        new_process(command + 2);",                                    # 51
    "    }",                                                                # 52
    "    if (command == 2) {",                                              # 53
    "        new_process(7);",                                              # 54
    "    }",                                                                # 55
    "    if (command == 3) {",                                              # 56
    "        upgrade_first(2);",                                            # 57
    "    }",                                                                # 58
    "    if (command == 4) {",                                              # 59
    "        finish_highest();",                                            # 60
    "    }",                                                                # 61
    "    if (command == 5) {",                                              # 62
    "        flush_all();",                                                 # 63
    "    }",                                                                # 64
    "}",                                                                    # 65
    "int main(int c1, int c2, int c3, int c4, int c5, int c6) {",           # 66
    "    run_command(c1);",                                                 # 67
    "    run_command(c2);",                                                 # 68
    "    run_command(c3);",                                                 # 69
    "    run_command(c4);",                                                 # 70
    "    run_command(c5);",                                                 # 71
    "    run_command(c6);",                                                 # 72
    "    print_int(finished);",                                             # 73
    "    return count - finished;",                                         # 74
    "}",                                                                    # 75
)

SCHEDULE = LargeBenchmark(
    name="schedule",
    reduction="DS",
    source_lines=_SCHEDULE_LINES,
    # Off-by-one when flushing the process queue: the last created process is
    # never flushed (the paper's schedule fault).
    patches=((41, "    while (i < count - 1) {"),),
    failing_test=(1, 2, 3, 1, 4, 5),
    description="off-by-one in the flush loop bound",
)

SCHEDULE_LARGE_TEST = (1, 2, 3, 1, 2, 5)


# -------------------------------------------------------------------- schedule2

_SCHEDULE2_LINES = (
    "int queue[6];",                                                        # 1
    "int size = 0;",                                                        # 2
    "void enqueue(int priority) {",                                         # 3
    "    if (size < 6) {",                                                  # 4
    "        queue[size] = priority;",                                      # 5
    "        size = size + 1;",                                             # 6
    "    }",                                                                # 7
    "}",                                                                    # 8
    "int promote(int index, int boost) {",                                  # 9
    "    if (index < 0 || index >= size) {",                                # 10
    "        return 0;",                                                    # 11
    "    }",                                                                # 12
    "    queue[index] = queue[index] + boost * 2;",                         # 13  (fault site)
    "    return queue[index];",                                             # 14
    "}",                                                                    # 15
    "int busiest() {",                                                      # 16
    "    int best = 0;",                                                    # 17
    "    int i = 1;",                                                       # 18
    "    while (i < size) {",                                               # 19
    "        if (queue[i] > queue[best]) {",                                # 20
    "            best = i;",                                                # 21
    "        }",                                                            # 22
    "        i = i + 1;",                                                   # 23
    "    }",                                                                # 24
    "    return best;",                                                     # 25
    "}",                                                                    # 26
    "int main(int p1, int p2, int p3, int boost) {",                        # 27
    "    int winner = 0;",                                                  # 28
    "    int audit = 0;",                                                   # 29
    "    enqueue(p1);",                                                     # 30
    "    enqueue(p2);",                                                     # 31
    "    enqueue(p3);",                                                     # 32
    "    audit = p1 + p2 + p3;",                                            # 33
    "    promote(1, boost);",                                               # 34
    "    winner = busiest();",                                              # 35
    "    print_int(queue[winner]);",                                        # 36
    "    return winner;",                                                   # 37
    "}",                                                                    # 38
)

_SCHEDULE2_CORRECT_13 = "    queue[index] = queue[index] + boost;"

SCHEDULE2 = LargeBenchmark(
    name="schedule2",
    reduction="S",
    source_lines=tuple(
        _SCHEDULE2_CORRECT_13 if index == 12 else line
        for index, line in enumerate(_SCHEDULE2_LINES)
    ),
    # The faulty version doubles the boost when promoting a process.
    patches=((13, "    queue[index] = queue[index] + boost * 2;"),),
    failing_test=(5, 4, 6, 1),
    description="wrong priority boost in promote()",
)


LARGE_BENCHMARKS: tuple[LargeBenchmark, ...] = (
    TOT_INFO,
    PRINT_TOKENS,
    SCHEDULE,
    SCHEDULE2,
)
