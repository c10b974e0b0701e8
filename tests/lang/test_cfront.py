"""Tests for the pycparser-based C front end."""

import pytest

pytest.importorskip("pycparser")

from repro.lang import ast
from repro.lang.cfront import c_to_program
from repro.lang.errors import CFrontError
from repro.lang.pretty import pretty


class TestTranslation:
    def test_function_and_params(self):
        program = c_to_program("int add(int a, int b) { return a + b; }")
        proc = program.procs["add"]
        assert proc.params == ("a", "b")
        assert isinstance(proc.body[0], ast.Return)

    def test_prototype_becomes_extern(self):
        program = c_to_program("int get_input(); void main() { int x = get_input(); }")
        assert "get_input" in program.externs

    def test_prototype_with_later_definition_not_extern(self):
        program = c_to_program(
            "int f(); int f() { return 1; } void main() { f(); }"
        )
        assert "f" not in program.externs
        assert "f" in program.procs

    def test_declarations_with_initializers(self):
        program = c_to_program("void f() { int x = 5; int y; }")
        body = program.procs["f"].body
        assert body[0].init.value == 5
        assert body[1].init is None

    def test_array_declaration(self):
        program = c_to_program("void f() { int a[8]; }")
        assert program.procs["f"].body[0].array_size == 8

    def test_compound_assignment(self):
        program = c_to_program("void f() { int x = 0; x += 3; }")
        assign = program.procs["f"].body[1]
        assert isinstance(assign.value, ast.Binary) and assign.value.op == "+"

    def test_increment_decrement(self):
        program = c_to_program("void f() { int x = 0; x++; --x; }")
        body = program.procs["f"].body
        assert body[1].value.op == "+"
        assert body[2].value.op == "-"

    def test_control_flow(self):
        program = c_to_program(
            """
            void f(int n) {
                int i;
                for (i = 0; i < n; i++) {
                    if (i % 2 == 0) { continue; }
                    while (i > 10) { break; }
                }
            }
            """
        )
        body = program.procs["f"].body
        assert isinstance(body[1], ast.For)

    def test_do_while(self):
        program = c_to_program("void f() { int i = 0; do { i++; } while (i < 3); }")
        body = program.procs["f"].body
        # Unrolled once, then a while.
        assert isinstance(body[-1], ast.While)

    def test_switch_with_breaks(self):
        program = c_to_program(
            """
            void f(int x) {
                switch (x) {
                case 1: x = 10; break;
                case 2: x = 20; break;
                default: x = 0;
                }
            }
            """
        )
        switch = program.procs["f"].body[0]
        assert isinstance(switch, ast.Switch)
        assert [c.value for c in switch.cases] == [1, 2]
        # trailing break stripped (RC arms do not fall through)
        assert all(
            not any(isinstance(s, ast.Break) for s in c.body) for c in switch.cases
        )

    def test_pointers(self):
        program = c_to_program(
            "void f() { int x = 1; int *p = &x; *p = 2; int y = *p; }"
        )
        body = program.procs["f"].body
        assert isinstance(body[1].init, ast.Unary) and body[1].init.op == "&"
        assert isinstance(body[2].target, ast.Unary) and body[2].target.op == "*"

    def test_struct_access(self):
        program = c_to_program(
            """
            struct msg { int kind; };
            void f(struct msg m, struct msg *p) {
                int a = m.kind;
                int b = p->kind;
            }
            """
        )
        body = program.procs["f"].body
        assert isinstance(body[0].init, ast.Field)
        arrow = body[1].init
        assert isinstance(arrow, ast.Field)
        assert isinstance(arrow.base, ast.Unary) and arrow.base.op == "*"

    def test_char_and_string_constants(self):
        program = c_to_program("void f() { send(out, 'x'); }")
        call = program.procs["f"].body[0]
        assert isinstance(call.args[1], ast.StrLit)

    def test_primitive_calls_pass_through(self):
        program = c_to_program(
            """
            void f() {
                int t = VS_toss(3);
                VS_assert(t >= 0);
                send(box, t);
                int v = recv(box);
                sem_p(lock);
                sem_v(lock);
            }
            """
        )
        assert "f" in program.procs
        # Primitives are not externs.
        assert not program.externs

    def test_cast_dropped(self):
        program = c_to_program("void f() { int x = (int) 5; }")
        assert program.procs["f"].body[0].init.value == 5

    def test_translated_output_prettyprints(self):
        program = c_to_program(
            "int g(); void main() { int x = g(); if (x) { x = 0; } }"
        )
        text = pretty(program)
        assert "proc main()" in text


class TestRejections:
    def test_global_variable_rejected(self):
        with pytest.raises(CFrontError):
            c_to_program("int global_state; void f() { }")

    def test_ternary_rejected(self):
        with pytest.raises(CFrontError):
            c_to_program("void f(int x) { int y = x ? 1 : 2; }")

    def test_varargs_rejected(self):
        with pytest.raises(CFrontError):
            c_to_program("void f(int x, ...) { }")

    def test_parse_error_wrapped(self):
        with pytest.raises(CFrontError):
            c_to_program("void f( {")

    def test_sizeof_rejected(self):
        with pytest.raises(CFrontError):
            c_to_program("void f() { int x = sizeof(int); }")

    @pytest.mark.parametrize(
        "source",
        ["int f { return; }", "int f int x; { return; }", "int *f { return; }"],
    )
    def test_definition_without_parameter_list_rejected(self, source):
        with pytest.raises(CFrontError, match="no parameter list") as err:
            c_to_program(source)
        assert err.value.location is not None
        assert err.value.location.line == 1


class TestEndToEnd:
    def test_c_program_closes_and_runs(self):
        from tests.helpers import single_process_behaviors

        from repro import close_program

        program = c_to_program(
            """
            int get_input();

            void main() {
                int x = get_input();
                int cnt = 0;
                while (cnt < 2) {
                    if (x % 2 == 0) { send(out, 1); } else { send(out, 0); }
                    cnt = cnt + 1;
                }
            }
            """
        )
        closed = close_program(program)
        traces = single_process_behaviors(closed.cfgs, "main")
        assert traces == {(1, 1), (1, 0), (0, 1), (0, 0)}
