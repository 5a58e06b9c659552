"""Span tracing of critloci's layer entry points, from outside the program.

Each wrapped entry point records a span (name, start, end, parent) in compact
arrays; self times are computed from the spans after the pass.  Wrappers are
installed by rebinding every place a critloci module binds the original
function: module globals (``from x import f`` copies included), class
attributes, static methods, default arguments and closure cells.  A few
entry points only count calls, and the Scalar operations are counted in a
separate pass so that per-call wrappers do not distort the span times.
"""

from __future__ import annotations

import gc
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path) for every entry point that gets a span
SPANS = (
    ("potential.hessian", "critloci.potential", "hessian"),
    ("potential.gauge_directions", "critloci.potential", "gauge_directions"),
    ("exactalg.apply", "critloci.exactalg", "Matrix.apply"),
    ("exactalg.in_radical", "critloci.exactalg", "QuadraticForm.in_radical"),
    ("exactalg.matmul", "critloci.exactalg", "Matrix.__matmul__"),
    ("exactalg.rank", "critloci.exactalg", "Matrix.rank"),
    ("exactalg.kernel_basis", "critloci.exactalg", "Matrix.kernel_basis"),
    ("exactalg.solve_exact", "critloci.exactalg", "solve_exact"),
    ("exactalg.form_restrict", "critloci.exactalg", "form_restrict"),
    ("exactalg.poly_mul", "critloci.exactalg", "Poly.__mul__"),
    ("exactalg.span_rank", "critloci.exactalg", "span_rank"),
    ("hilbtan.enumerate_monomial_ideals", "critloci.hilbtan", "enumerate_monomial_ideals"),
    ("hilbtan.hom_dim", "critloci.hilbtan", "hom_dim"),
    ("hilbtan.hessian_tangent_dim", "critloci.hilbtan", "hessian_tangent_dim"),
    ("stability.krylov_closure", "critloci.stability", "krylov_closure"),
    ("luna.sigma_matrix", "critloci.luna", "sigma_matrix"),
    ("luna.slice_decomposition", "critloci.luna", "slice_decomposition"),
    ("luna.slice_hessian_nondegenerate", "critloci.luna", "slice_hessian_nondegenerate"),
    ("koszul.hat_elements", "critloci.koszul", "hat_elements"),
    ("koszul.m2", "critloci.koszul", "m2"),
    ("koszul.cyclic_pairing", "critloci.koszul", "cyclic_pairing"),
    ("koszul.verify_product_table", "critloci.koszul", "verify_product_table"),
    ("koszul.massey_vanishing_report", "critloci.koszul", "massey_vanishing_report"),
    ("superpotential.extract_superpotential", "critloci.superpotential", "extract_superpotential"),
    ("superpotential.vertex_j_values", "critloci.superpotential", "vertex_j_values"),
    ("superpotential.verify_trace_identity", "critloci.superpotential", "verify_trace_identity"),
    ("dgalg.build_q3n", "critloci.dgalg", "build_q3n"),
    ("dgalg.verify_delta_squared", "critloci.dgalg", "verify_delta_squared"),
    ("dgalg.h0_ideal_match", "critloci.dgalg", "h0_ideal_match"),
    ("dgalg.ce_ideal_match", "critloci.dgalg", "ce_ideal_match"),
    ("cli.run", "critloci.cli", "run"),
    ("cli.render_report", "critloci.cli", "render_report"),
    # quiver and rng are expected to be negligible; these spans confirm it
    ("quiver.PolystableData.from_json", "critloci.quiver", "PolystableData.from_json"),
    ("rng.random_matrix", "critloci.rng", "random_matrix"),
)

# entry points whose calls are counted without a span (the _echelon wrapper
# counts only the calls made directly inside an int-entry rank)
COUNTED = (
    ("koszul.dg_product", "critloci.koszul", "dg_product"),
    ("exactalg.echelon", "critloci.exactalg", "Matrix._echelon"),
)

# Scalar operations counted in the separate counting pass; the reflected
# forms (__radd__, __rmul__) are the same function objects and so count too,
# and __rtruediv__ delegates to __truediv__
SCALAR_OPS = (("add", "__add__"), ("mul", "__mul__"), ("div", "__truediv__"))

NEGLIGIBLE = ("quiver.", "rng.")


def _resolve(module_name: str, path: str):
    """The function object itself, unwrapped from staticmethod/classmethod."""
    value = sys.modules[module_name]
    for part in path.split("."):
        value = vars(value)[part]
    return value.__func__ if isinstance(value, (staticmethod, classmethod)) else value


def _is_int_matrix(matrix) -> bool:
    return all(v.im == 0 and v.re.denominator == 1 for row in matrix.entries for v in row)


class Tracer:
    """Spans in memory (parallel arrays) plus named counters for one pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self.stack.pop()

    def innermost(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def self_times(self) -> dict:
        """A span's duration minus the part of it covered by its child spans."""
        count = len(self.span_name)
        child = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict = {}
        for i in range(count):
            name = self.names[self.span_name[i]]
            own = self.span_end[i] - self.span_start[i] - child[i]
            out[name] = out.get(name, 0.0) + own
        return out


def _named(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _spanned(tracer: Tracer, name: str, fn):
    name_id = tracer.intern(name)
    open_, close = tracer.open, tracer.close

    def wrapper(*args, **kwargs):
        index = open_(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close(index)

    return _named(wrapper, fn)


def _rank_wrapper(tracer: Tracer, fn):
    """Span named by the elimination path, classified from the entries."""
    int_id = tracer.intern("exactalg.rank.int")
    field_id = tracer.intern("exactalg.rank.field")
    counters = tracer.counters
    open_, close = tracer.open, tracer.close

    def rank(self):
        path = "int" if _is_int_matrix(self) else "field"
        counters[f"exactalg.rank.{path}.cells"] += self.rows * self.cols
        before = counters["exactalg.rank.int_fallbacks"]
        index = open_(int_id if path == "int" else field_id)
        try:
            return fn(self)
        finally:
            close(index)
            if path == "int" and counters["exactalg.rank.int_fallbacks"] > before:
                counters["exactalg.rank.int_slow"] += 1

    return _named(rank, fn)


def _echelon_wrapper(tracer: Tracer, fn):
    counters = tracer.counters

    def _echelon(self):
        if tracer.innermost() == "exactalg.rank.int":
            counters["exactalg.rank.int_fallbacks"] += 1
        return fn(self)

    return _named(_echelon, fn)


def _counted(tracer: Tracer, name: str, fn):
    counters = tracer.counters
    key = f"{name}.calls"

    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return _named(wrapper, fn)


def _observed(tracer: Tracer, name: str, fn, before=None, after=None):
    """A span plus a counter hook that sees the arguments or the result."""
    inner = _spanned(tracer, name, fn)
    counters = tracer.counters

    def wrapper(*args, **kwargs):
        if before is not None:
            before(counters, *args)
        result = inner(*args, **kwargs)
        if after is not None:
            after(counters, result)
        return result

    return _named(wrapper, fn)


def _count_gram(counters, form):
    counters["potential.gram_cells"] += form.dim * form.dim
    counters["potential.gram_nnz"] += sum(
        1 for row in form.gram.entries for v in row if not v.is_zero()
    )


def _count_vec(counters, _matrix, vec):
    counters["exactalg.apply.vec_len"] += len(vec)
    counters["exactalg.apply.vec_nnz"] += sum(1 for v in vec if v)


def _count_kernel_cells(counters, matrix):
    counters["exactalg.kernel_basis.cells"] += matrix.rows * matrix.cols


def _term_pair_counter(poly_type):
    def count(counters, left, right):
        pairs = len(right.terms) if isinstance(right, poly_type) else 1
        counters["exactalg.poly_mul.term_pairs"] += len(left.terms) * pairs

    return count


def _make_wrapper(tracer: Tracer, name: str, fn):
    if name == "exactalg.rank":
        return _rank_wrapper(tracer, fn)
    if name == "potential.hessian":
        return _observed(tracer, name, fn, after=_count_gram)
    if name == "exactalg.apply":
        return _observed(tracer, name, fn, before=_count_vec)
    if name == "exactalg.kernel_basis":
        return _observed(tracer, name, fn, before=_count_kernel_cells)
    if name == "exactalg.poly_mul":
        poly = sys.modules["critloci.exactalg"].Poly
        return _observed(tracer, name, fn, before=_term_pair_counter(poly))
    return _spanned(tracer, name, fn)


def _scalar_counter(cell: list, fn):
    def wrapper(self, other):
        cell[0] += 1
        return fn(self, other)

    return _named(wrapper, fn)


# -- rebinding ------------------------------------------------------------


def _critloci_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "critloci" or name.startswith("critloci."))
    ]


def _owned(value, module) -> bool:
    return getattr(value, "__module__", None) == module.__name__


def _bindings(modules):
    """(value, setter) for every slot through which critloci code reaches a value."""
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            yield value, (lambda v, m=module, n=name: setattr(m, n, v))
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    yield item, (lambda v, d=value, k=key: d.__setitem__(k, v))
            if isinstance(value, type) and _owned(value, module):
                for attr, item in list(vars(value).items()):
                    if isinstance(item, (staticmethod, classmethod)):
                        kind = type(item)
                        yield item.__func__, (
                            lambda v, c=value, a=attr, k=kind: setattr(c, a, k(v))
                        )
                        item = item.__func__
                    else:
                        yield item, (lambda v, c=value, a=attr: setattr(c, a, v))
                    if isinstance(item, types.FunctionType) and _owned(item, module):
                        yield from _function_slots(item)
            elif isinstance(value, types.FunctionType) and _owned(value, module):
                yield from _function_slots(value)


def _function_slots(fn):
    for i, default in enumerate(fn.__defaults__ or ()):
        yield default, (lambda v, f=fn, i=i: _set_default(f, i, v))
    for key, default in (fn.__kwdefaults__ or {}).items():
        yield default, (lambda v, f=fn, k=key: f.__kwdefaults__.__setitem__(k, v))
    for cell in fn.__closure__ or ():
        try:
            content = cell.cell_contents
        except ValueError:  # empty cell
            continue
        yield content, (lambda v, c=cell: setattr(c, "cell_contents", v))


def _set_default(fn, index: int, value):
    defaults = list(fn.__defaults__)
    defaults[index] = value
    fn.__defaults__ = tuple(defaults)


def _closure_cells(fn, seen: set) -> None:
    """Ids of every closure cell reachable from a wrapper, nested wrappers included."""
    for cell in getattr(fn, "__closure__", None) or ():
        if id(cell) not in seen:
            seen.add(id(cell))
            content = cell.cell_contents
            if isinstance(content, types.FunctionType):
                _closure_cells(content, seen)


class Installation:
    """Wrappers bound into every critloci module; ``remove`` restores them."""

    def __init__(self, tracer: Tracer, count_scalars: bool):
        self.tracer = tracer
        self.scalar_cells = {op: [0] for op, _ in SCALAR_OPS}
        wrappers = {}
        for name, module, path in SPANS:
            fn = _resolve(module, path)
            wrappers[id(fn)] = (fn, _make_wrapper(tracer, name, fn))
        for name, module, path in COUNTED:
            fn = _resolve(module, path)
            if name == "exactalg.echelon":
                wrappers[id(fn)] = (fn, _echelon_wrapper(tracer, fn))
            else:
                wrappers[id(fn)] = (fn, _counted(tracer, name, fn))
        if count_scalars:
            scalar = sys.modules["critloci.exactalg"].Scalar
            for op, attr in SCALAR_OPS:
                fn = vars(scalar)[attr]
                wrappers[id(fn)] = (fn, _scalar_counter(self.scalar_cells[op], fn))
        self._wrappers = wrappers
        self._undo = []
        for value, setter in list(_bindings(_critloci_modules())):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(hit[1])
                self._undo.append((setter, value))
        self.stray = self._stray_references()

    def _stray_references(self) -> list:
        """Holders of an original other than the wrappers and this object.

        Found through the garbage collector, independently of how the
        wrappers were bound, so a binding the rebinding missed (a list, a
        partial, a nested container) shows up here.  Must be empty.
        """
        ours = {id(self._wrappers), id(self._undo)}
        ours.update(id(entry) for entry in self._undo)
        ours.update(id(pair) for pair in self._wrappers.values())
        for _, wrapper in self._wrappers.values():
            _closure_cells(wrapper, ours)
        return [
            f"{fn.__qualname__} held by a {type(ref).__name__}"
            for fn, _ in self._wrappers.values()
            for ref in gc.get_referrers(fn)
            if id(ref) not in ours and not isinstance(ref, types.FrameType)
        ]

    def scalar_counts(self) -> dict:
        return {f"exactalg.scalar.{op}.count": cell[0] for op, cell in self.scalar_cells.items()}

    def remove(self) -> None:
        for setter, original in reversed(self._undo):
            setter(original)
        self._undo.clear()
        self._wrappers = {}  # frees the wrappers, and their hold on the originals
