"""Outside-in span tracer for divreg.

The tracer changes no program code. It replaces public functions of the
divreg modules at the bindings their callers look them up through (for
example `divreg.models.conv2d` and `divreg.nn.conv2d` are two bindings of
one function), records one span per call and restores every binding on
`uninstall`. Spans are kept in memory as parallel lists (name, start,
end, parent) and written out once, when the run ends.

Backward time per op comes from wrapping `Tensor.from_op`, the tape's
registration point: each recorded backward closure is replaced by a timed
one named after its op. Counters (tape nodes, conv calls, `lu_det` calls)
are kept per phase, the innermost of: an optimisation step, an epoch's
accuracy pass, an `evaluate` call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

CONV_ROLES = ("base_conv1", "base_conv2", "branch_conv1", "branch_conv2",
              "attn_spatial_conv", "global_conv", "local_conv")

STEP = "training.step"
TRAIN = "training.train"
EPOCH_EVAL = "training.predict_dataset"
EVALUATE = "training.evaluate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()  # (phase, counter) -> count
        self.phase = "other"
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._models: list = []
        self._roles: dict[int, str] = {}
        self._conv_role = "unknown"

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, phase: str | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append((idx, self.phase))
        if phase is not None:
            self.phase = phase
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        while self._stack:
            top, prev_phase = self._stack.pop()
            self.ends[top] = now
            self.phase = prev_phase
            if top == idx:
                return

    def call(self, name: str, fn, *args, phase: str | None = None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; used for the calls the
        benchmark makes itself."""
        idx = self.open(name, phase)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- conv roles ----------------------------------------------------------

    def watch(self, model) -> None:
        """Register a model whose ConvLayers name the conv spans."""
        self._models.append(model)
        self._roles.update(_conv_roles(model))

    def _role(self, layer) -> str:
        role = self._roles.get(id(layer))
        if role is None:  # a branch added since the model was registered
            for model in self._models:
                self._roles.update(_conv_roles(model))
            role = self._roles.get(id(layer), "unknown")
        return role

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn, phase: str | None = None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[(tracer.phase, counter)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        # `from divreg import diversity` gives the function the package
        # re-exports, not the module, so modules are looked up by name.
        autodiff, diversity, models, nn, training = (
            importlib.import_module(f"divreg.{name}")
            for name in ("autodiff", "diversity", "models", "nn", "training"))
        t = self
        self._patch(training, "predict_dataset",
                    self._timed(EPOCH_EVAL, training.predict_dataset, phase="epoch_eval"))
        self._patch(training, "backward", self._timed("autodiff.backward", training.backward))
        self._patch(training, "add_branch", self._timed("models.add_branch", training.add_branch))
        self._patch(training, "batches", self._traced_batches(training.batches))
        self._patch(training.SGD, "step", self._timed("training.sgd", training.SGD.step))
        for cls in (models.EnsembleModel, models.DualBranchModel):
            self._patch(cls, "forward", self._timed("models.forward", cls.forward))
        self._patch(models, "attention_apply",
                    self._timed("nn.attention_apply.fwd", models.attention_apply))
        self._patch(models, "conv2d", self._traced_conv(models.conv2d))
        self._patch(nn, "conv2d", self._traced_conv(nn.conv2d))
        self._patch(diversity, "similarity_matrix_t",
                    self._timed("diversity.similarity.fwd", diversity.similarity_matrix_t))
        self._patch(diversity, "det_t", self._timed("diversity.det.fwd", diversity.det_t))
        self._patch(diversity, "lu_det", self._counted("diversity.lu_det.calls", diversity.lu_det))

        from_op = autodiff.Tensor.from_op.__func__

        def traced_from_op(cls, data, parents, backward, op):
            t.counts[(t.phase, "autodiff.nodes")] += 1
            if op == "conv2d":
                name = f"nn.conv2d.{t._conv_role}.bwd"
            elif op == "det":
                name = "diversity.det.bwd"
            else:
                name = f"autodiff.{op}.bwd"

            def timed_backward(g):
                idx = t.open(name)
                try:
                    backward(g)
                finally:
                    t.close(idx)
            return from_op(cls, data, parents, timed_backward, op)

        self._patch(autodiff.Tensor, "from_op", classmethod(traced_from_op))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._models.clear()
        self._roles.clear()

    def _traced_conv(self, conv2d):
        t = self

        def wrapper(x, layer):
            role = t._role(layer)
            t.counts[(t.phase, "nn.conv2d.calls")] += 1
            outer, t._conv_role = t._conv_role, role
            idx = t.open(f"nn.conv2d.{role}.fwd")
            try:
                return conv2d(x, layer)
            finally:
                t.close(idx)
                t._conv_role = outer
        return wrapper

    def _traced_batches(self, batches):
        """Spans for batch assembly and, in the shuffled training loop, for
        the optimisation step: from the yield of a batch until the loop
        asks for the next one."""
        t = self

        def wrapper(dataset, batch_size, shuffle_seed=None):
            inner = batches(dataset, batch_size, shuffle_seed=shuffle_seed)
            step = None
            try:
                while True:
                    if step is not None:
                        t.close(step)
                        step = None
                    idx = t.open("data.batches")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t.close(idx)
                    if shuffle_seed is not None:
                        step = t.open(STEP, phase="step")
                    yield item
            finally:
                if step is not None:
                    t.close(step)
        return wrapper

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[code[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                      for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)],
            "counts": [[phase, name, n] for (phase, name), n in sorted(self.counts.items())],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))

    def layer_table(self, epochs: int, images_evaluated: int) -> dict:
        """Per-layer metrics (value, unit) from the recorded spans."""
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        in_step = [False] * n
        in_train = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                in_step[i] = in_step[p] or self.names[p] == STEP
                in_train[i] = in_train[p] or self.names[p] == TRAIN

        total = Counter()
        calls = Counter()
        step_total = Counter()
        for i in range(n):
            name = self.names[i]
            total[name] += dur[i]
            calls[name] += 1
            if in_step[i]:
                step_total[name] += dur[i]
        steps = calls[STEP]
        setups = calls["models.build"]
        backward_self = sum(dur[i] - child[i] for i in range(n)
                            if self.names[i] == "autodiff.backward")
        train_batches = sum(dur[i] for i in range(n) if self.names[i] == "data.batches"
                            and self.parents[i] >= 0 and self.names[self.parents[i]] == TRAIN)
        epoch_eval = sum(dur[i] for i in range(n) if self.names[i] == EPOCH_EVAL and in_train[i])

        def per(x, k):
            return x / k if k else 0.0

        def ms(x):
            return {"value": 1e3 * x, "unit": "ms"}

        m = {
            "training.step_ms": ms(per(total[STEP], steps)),
            "training.epoch_eval_ms": {"value": 1e3 * per(epoch_eval, epochs), "unit": "ms/epoch"},
            "training.sgd_ms": ms(per(step_total["training.sgd"], steps)),
            "training.evaluate_ms_per_image": ms(per(total[EVALUATE], images_evaluated)),
            "models.forward_ms": ms(per(step_total["models.forward"], steps)),
            "models.add_branch_ms": {"value": 1e3 * per(total["models.add_branch"],
                                                        calls["models.add_branch"]),
                                     "unit": "ms/add"},
            "models.build_ms": {"value": 1e3 * per(total["models.build"], setups),
                                "unit": "ms/run"},
            "data.load_dataset_ms": {"value": 1e3 * per(total["data.load_dataset"], setups),
                                     "unit": "ms/run"},
        }
        for role in CONV_ROLES:
            for way in ("fwd", "bwd"):
                key = f"nn.conv2d.{role}.{way}"
                m[f"{key}_ms"] = ms(per(step_total[key], steps))
        m["nn.conv2d.calls"] = {"value": per(self.counts[("step", "nn.conv2d.calls")], steps),
                                "unit": "count"}
        m["nn.attention_apply.fwd_ms"] = ms(per(step_total["nn.attention_apply.fwd"], steps))
        m["diversity.similarity.fwd_ms"] = ms(per(step_total["diversity.similarity.fwd"], steps))
        m["diversity.det.fwd_ms"] = ms(per(step_total["diversity.det.fwd"], steps))
        m["diversity.det.bwd_ms"] = ms(per(step_total["diversity.det.bwd"], steps))
        m["diversity.lu_det.calls"] = {
            "value": per(self.counts[("step", "diversity.lu_det.calls")], steps), "unit": "count"}
        m["autodiff.backward_ms"] = ms(per(step_total["autodiff.backward"], steps))
        m["autodiff.backward.self_ms"] = ms(per(backward_self, steps))
        m["autodiff.nodes"] = {"value": per(self.counts[("step", "autodiff.nodes")], steps),
                               "unit": "count"}
        m["autodiff.eval_nodes_per_image"] = {
            "value": per(self.counts[("evaluate", "autodiff.nodes")], images_evaluated),
            "unit": "count"}
        m["data.batches_ms"] = ms(per(train_batches, steps))
        return m


def _conv_roles(model) -> dict[int, str]:
    """id(ConvLayer) -> role, for both model families."""
    roles = {}
    base = getattr(model, "base", None) or getattr(model, "backbone")
    roles[id(base.conv1)] = "base_conv1"
    roles[id(base.conv2)] = "base_conv2"
    attns = []
    for branch in getattr(model, "branches", []):
        roles[id(branch.conv1)] = "branch_conv1"
        roles[id(branch.conv2)] = "branch_conv2"
        attns += [branch.attn1, branch.attn2]
    if hasattr(model, "global_conv"):
        roles[id(model.global_conv)] = "global_conv"
        for conv in model.local_convs:
            roles[id(conv)] = "local_conv"
        attns += [model.global_attn, *model.local_attns]
    for attn in attns:
        if attn is not None:
            roles[id(attn.spatial_conv)] = "attn_spatial_conv"
    return roles
