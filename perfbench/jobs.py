"""The three workloads: how each input is prepared, run as one job, and
checked.

A job's output is reduced to a digest of its canonical form (violation
lists, Hom basis JSON, glued representation JSON, CLI stdout bytes).
Semantic checks that need more library calls (morphism validity,
predicted Hom dimension) run on each input's first output, outside the
timed region; glue(section(g)) == g runs on the warm-up, one input of
each class.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext

# Library calls go through the modules, never through names imported
# here, so that the traced run's wrappers see them.
from fanrep import cli, descent, reps


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _violations(vs) -> list:
    return [v.to_json() for v in vs]


class Job:
    """One generated input, parsed and ready to run."""

    def __init__(self, item, workdir, tracer=None):
        self.item = item
        self.name = item.name
        self.dir = os.path.join(workdir, item.name)

    def path(self, name):
        return os.path.join(self.dir, name)

    def load(self, name):
        with open(self.path(name), encoding="utf-8") as handle:
            return json.load(handle)

    def warm_up_problems(self, out):
        """Checks too costly for every input, run on the warm-up."""
        return []


class DescentGlueJob(Job):
    def prepare(self):
        (name,) = self.item.job
        self.datum = descent.descent_from_json(self.load(name))

    def run(self):
        d = self.datum
        found = descent.validate_descent(d)
        glued = descent.glue(d)
        self_check = reps.validate_CDelta(glued, d.fan, d.bases)
        back = descent.section(glued, d.fan, d.bases)
        return found, glued, self_check, back

    def digest(self, out):
        found, glued, self_check, back = out
        return digest(
            [_violations(found), reps.rep_to_json(glued), _violations(self_check), descent.descent_to_json(back)]
        )

    def problems(self, out):
        found, glued, self_check, back = out
        bad = []
        if found:
            bad.append(f"valid datum reported {len(found)} violations")
        if self_check:
            bad.append(f"glued representation reported {len(self_check)} violations")
        return bad

    def warm_up_problems(self, out):
        """glue(section(g)) == g costs a quarter of a job; the warm-up
        holds one input of every class."""
        _, glued, _, back = out
        return [] if descent.glue(back) == glued else ["glue(section(g)) != g"]


class HomSolveJob(Job):
    def prepare(self):
        a_name, b_name = self.item.job
        self.a = reps.rep_from_json(self.load(a_name))
        self.b = reps.rep_from_json(self.load(b_name))

    def run(self):
        return reps.hom_basis(self.a, self.b)

    def digest(self, out):
        return digest([m.to_json() for m in out])

    def problems(self, out):
        bad = []
        want = self.item.expect["hom_dim"]
        if len(out) != want:
            bad.append(f"dim Hom = {len(out)}, construction predicts {want}")
        if not all(m.is_valid() for m in out):
            bad.append("a Hom basis element is not a morphism")
        return bad


class CliJob(Job):
    def __init__(self, item, workdir, tracer=None):
        super().__init__(item, workdir)
        self.dump_span = tracer.span("cli.dump") if tracer is not None else nullcontext()

    def prepare(self):
        files = set(self.item.files)
        self.argv = [self.path(arg) if arg in files else arg for arg in self.item.job]

    def run(self):
        result = cli.run(self.argv)
        with self.dump_span:  # what cli.main prints
            text = json.dumps(result.to_json(), sort_keys=True, indent=2)
        return result.exit_code, text

    def digest(self, out):
        code, text = out
        return digest(f"{code}\n{text}\n")

    def problems(self, out):
        code, text = out
        expect = self.item.expect
        data = json.loads(text)
        bad = []
        if code != expect["exit"]:
            bad.append(f"exit {code}, expected {expect['exit']}")
        if self.item.planted is not None:
            found = {v["condition"] for v in data.get("violations", [])}
            if self.item.planted[1] not in found:
                bad.append(f"planted {self.item.planted[1]} not reported (got {sorted(found)})")
        if "hom_dim" in expect and data.get("dim") != expect["hom_dim"]:
            bad.append(f"dim {data.get('dim')}, construction predicts {expect['hom_dim']}")
        if "verdict" in expect and data.get("verdict") != expect["verdict"]:
            bad.append(f"verdict {data.get('verdict')}, expected {expect['verdict']}")
        if self.item.job[:2] == ("descent", "glue") and code == 0 and data.get("validation") != "ok":
            bad.append("glued representation failed its self-check")
        return bad


WORKLOADS = {"descent_glue": DescentGlueJob, "hom_solve": HomSolveJob, "cli_mixed": CliJob}
