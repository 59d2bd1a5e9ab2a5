"""Spans around calls into orthomono's public functions, recorded from the
benchmark's side so that nothing in src/ changes.

A traced function is rebound in every orthomono module that holds it, so
`from .group import setwise_stabilizer` in monomial is traced as well as
group.setwise_stabilizer; methods are wrapped on their class.  A name that
no longer exists reports zero calls.  Each span records its name, start,
end, parent span and op id; spans stay in memory and are written out when
the benchmark ends.  Self time is a span's duration minus its direct
children's.
"""

import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name)
SPANS = [
    ("field", "FieldSpec.mat_mul", "field.mat_mul"),
    ("field", "poly_factor", "field.poly_factor"),
    ("field", "splitting_field", "field.splitting_field"),
    ("linalg", "rref_array", "linalg.rref_array"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "minpoly", "linalg.minpoly"),
    ("form", "is_isometry", "form.is_isometry"),
    ("form", "validate_decomposition", "form.validate_decomposition"),
    ("group", "MatrixGroup.enumerate", "group.enumerate"),
    ("group", "derived_series", "group.derived_series"),
    ("group", "is_solvable", "group.is_solvable"),
    ("group", "setwise_stabilizer", "group.setwise_stabilizer"),
    ("group", "reduce_generators", "group.reduce_generators"),
    ("group", "orthogonal_group", "group.orthogonal_group"),
    ("tablegrp", "CayleyTable.from_matrix_group", "tablegrp.table"),
    ("tablegrp", "CayleyTable.from_perm_group", "tablegrp.table"),
    ("tablegrp", "CayleyTable.canonical_key", "tablegrp.canonical_key"),
    ("tablegrp", "CayleyTable.closure", "tablegrp.closure"),
    ("tablegrp", "CayleyTable.solvable_subgroup_classes",
     "tablegrp.solvable_subgroup_classes"),
    ("modrep", "is_irreducible", "modrep.is_irreducible"),
    ("modrep", "homogeneous_components", "modrep.homogeneous_components"),
    ("modrep", "spin", "modrep.spin"),
    ("monomial", "monomialize", "monomial.monomialize"),
    ("monomial", "find_invariant_decomposition",
     "monomial.find_invariant_decomposition"),
    ("monomial", "check_certificate", "monomial.check_certificate"),
    ("wreath", "maximality_check", "wreath.maximality_check"),
    ("wreath", "transitive_solvable_subgroups",
     "wreath.transitive_solvable_subgroups"),
    ("cli", "parse_group_file", "cli.parse_group_file"),
    ("cli", "write_certificate", "cli.write_certificate"),
    ("cli", "cmd_analyze", "cli.cmd_analyze"),
    ("cli", "cmd_check_theorem", "cli.cmd_check_theorem"),
    ("cli", "cmd_maximal", "cli.cmd_maximal"),
]

# Closures whose results are group elements materialized: counted, not
# timed, so that enumerate keeps their time as its own.
ELEMENT_COUNTERS = [("group", "dimino"), ("group", "_mulclose_prime")]

# (metric, unit) reported by a traced run, per traced pass.
PER_LAYER = [
    ("field.mat_mul.calls", "count"), ("field.mat_mul.self_s", "s"),
    ("field.poly_factor.calls", "count"), ("field.poly_factor.self_s", "s"),
    ("field.splitting_field.self_s", "s"),
    ("linalg.rref_array.calls", "count"), ("linalg.rref_array.self_s", "s"),
    ("linalg.kernel.calls", "count"), ("linalg.kernel.self_s", "s"),
    ("linalg.minpoly.self_s", "s"),
    ("form.is_isometry.calls", "count"), ("form.is_isometry.self_s", "s"),
    ("form.validate_decomposition.self_s", "s"),
    ("group.enumerate.calls", "count"), ("group.enumerate.self_s", "s"),
    ("group.elements", "count"),
    ("group.derived_series.calls", "count"),
    ("group.derived_series.self_s", "s"),
    ("group.is_solvable.calls", "count"),
    ("group.setwise_stabilizer.self_s", "s"),
    ("group.reduce_generators.self_s", "s"),
    ("group.orthogonal_group.self_s", "s"),
    ("tablegrp.table.self_s", "s"),
    ("tablegrp.canonical_key.calls", "count"),
    ("tablegrp.canonical_key.self_s", "s"),
    ("tablegrp.canonical_key.new_ratio", "ratio"),
    ("tablegrp.closure.calls", "count"), ("tablegrp.closure.self_s", "s"),
    ("tablegrp.solvable_subgroup_classes.self_s", "s"),
    ("modrep.is_irreducible.calls", "count"),
    ("modrep.is_irreducible.self_s", "s"),
    ("modrep.homogeneous_components.self_s", "s"),
    ("modrep.spin.calls", "count"),
    ("monomial.levels", "count"),
    ("monomial.monomialize.self_s", "s"),
    ("monomial.find_invariant_decomposition.self_s", "s"),
    ("monomial.check_certificate.self_s", "s"),
    ("wreath.maximality_check.self_s", "s"),
    ("wreath.transitive_solvable_subgroups.self_s", "s"),
    ("cli.parse_group_file.self_s", "s"),
    ("cli.write_certificate.self_s", "s"),
    ("cli.cmd_analyze.self_s", "s"),
    ("cli.cmd_check_theorem.self_s", "s"),
    ("cli.cmd_maximal.self_s", "s"),
    ("trace.overhead", "ratio"),
]

SRC_MODULES = ["__init__", "cli", "errors", "field", "form", "group",
               "linalg", "modrep", "monomial", "tablegrp", "wreath"]


def src_lines(src_dir):
    """Line count of each orthomono module (0 if gone) and of all of them:
    for information, so that shrinking is measured like speed."""
    pkg = src_dir / "orthomono"
    out = {}
    for name in SRC_MODULES:
        path = pkg / f"{name}.py"
        out[f"src.lines.{name}"] = \
            len(path.read_text().splitlines()) if path.is_file() else 0
    out["src.lines.total"] = sum(len(p.read_text().splitlines())
                                 for p in pkg.glob("*.py"))
    return out


def _resolve(path):
    """(owner, attribute, raw value) for 'func' or 'Class.method', or None
    when the name is gone."""
    mod_name, attr = path
    mod = sys.modules.get(f"orthomono.{mod_name}")
    if mod is None:
        return None
    owner = mod
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    """Installs the wrappers, records spans and counts, and restores every
    original binding on uninstall()."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op = -1
        self.elements = 0
        self.key_calls = 0
        self.new_keys = 0
        self._seen_keys = {}
        self._undo = []

    def begin_op(self, op):
        self.op = op
        self._seen_keys = {}

    def _span(self, fn, name):
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
        return traced

    def _count_elements(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.elements += len(result)
            return result
        return counted

    def _count_keys(self, fn):
        # new_ratio: distinct keys per table over calls; the table is kept
        # referenced for the op so its id cannot be reused.
        def counted(table, *args, **kwargs):
            key = fn(table, *args, **kwargs)
            _, seen = self._seen_keys.setdefault(id(table), (table, set()))
            self.key_calls += 1
            if key not in seen:
                seen.add(key)
                self.new_keys += 1
            return key
        return counted

    def _install(self, path, make):
        found = _resolve(path)
        if found is None:
            return
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        if isinstance(owner, type):
            self._rebind(owner, attr, raw, wrapped)
            return
        for name, mod in list(sys.modules.items()):
            if name == "orthomono" or name.startswith("orthomono."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._rebind(mod, key, raw, wrapped)

    def _rebind(self, owner, attr, raw, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def install(self):
        for mod, attr, name in SPANS:
            count = self._count_keys if name == "tablegrp.canonical_key" \
                else (lambda fn: fn)
            self._install((mod, attr), lambda fn, name=name, count=count:
                          self._span(count(fn), name))
        for path in ELEMENT_COUNTERS:
            self._install(path, self._count_elements)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def per_pass(self, passes):
        """Per-layer metrics averaged over `passes` traced passes (all but
        trace.overhead, which the caller measures)."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(names, weights=dur - child,
                             minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out = {}
        for metric, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            nid = self.name_id.get(base)
            if kind == "self_s":
                out[metric] = float(self_s[nid]) / passes \
                    if nid is not None else 0.0
            elif kind == "calls":
                out[metric] = int(calls[nid]) / passes \
                    if nid is not None else 0.0
        levels = self.name_id.get("monomial.monomialize")
        out["monomial.levels"] = \
            int(calls[levels]) / passes if levels is not None else 0.0
        out["group.elements"] = self.elements / passes
        out["tablegrp.canonical_key.new_ratio"] = \
            self.new_keys / self.key_calls if self.key_calls else 0.0
        return out

    def write(self, path):
        """All spans, one array per field, names indexed by `names`."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
