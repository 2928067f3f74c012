"""The benchmark's three seeded workloads.

Each workload turns a seed into a stream of operation inputs, runs one
operation through spinpulse's public functions, and checks the output
against an independent reference (``reference.py``).  The program only ever
sees the generated inputs.

Inputs come in blocks, and a timed run always finishes the block it is in.
Every nutation and echo_fit block holds the same mix of operation sizes, so
their work per operation does not depend on the seed.  program_check blocks
are random programs of random size, so its work per operation does depend on
the seed; a timed run averages it over a few thousand programs.

Calls go through module attributes (``spinpulse.rabi_trace``,
``spinpulse.cli.main``) looked up at call time, so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random

import spinpulse

import reference

STEP = 0.25 * math.pi


def _rng(*label) -> random.Random:
    return random.Random(":".join(str(x) for x in label))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = spinpulse.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class Nutation:
    """Corrected (BB1) and simple Rabi traces over a Gaussian amplitude-error
    ensemble with 41 Gauss-Hermite nodes, up to 20-40 pi in 0.25 pi steps.

    One operation is one BB1 trace plus one simple trace.  The time goes to
    the vectorised propagation kernel, which re-propagates every sample from
    scratch.  sigma stays in [0.02, 0.06]: from about 0.065 up the corrected
    amplitude at 40 pi drops below criterion c07's 0.98 (0.948 at 0.08, the
    composite pulse's residual error summed over 40 blocks), and from about
    0.075 up 41 nodes miss the closed-form envelope by more than 1e-3
    (1.5e-2 at 0.08).  Those are robustness cases for quadrature-convergence
    reporting, not traffic.
    """

    name = "nutation"
    warmup = True
    LENGTHS_PI = (20, 25, 30, 35, 40)
    NODES = 41
    PROFILE_BLOCKS = 1

    def _op(self, rng, max_pi):
        return {"max_pi": max_pi, "sigma": rng.uniform(0.02, 0.06)}

    def blocks(self, *label):
        rng = _rng(self.name, *label)
        while True:
            yield [self._op(rng, m) for m in rng.sample(self.LENGTHS_PI, len(self.LENGTHS_PI))]

    def setup_input(self, seed):
        return self._op(_rng(self.name, "setup", seed), 30)

    def prepare(self, inp):
        return inp

    def run(self, inp):
        sp = spinpulse
        ens = sp.EnsembleSpec(sp.Gaussian(0.0, inp["sigma"]), nodes=self.NODES)
        top = inp["max_pi"] * math.pi
        return {
            "bb1": sp.rabi_trace(top, STEP, ens, use_bb1=True).samples,
            "simple": sp.rabi_trace(top, STEP, ens).samples,
        }

    def check(self, inp, out):
        expected = 4 * inp["max_pi"] + 1
        for key in ("bb1", "simple"):
            if len(out[key]) != expected:
                return f"{key} trace has {len(out[key])} samples, expected {expected}"
        sigma = inp["sigma"]
        worst = max(abs(y - reference.gaussian_rabi(x, sigma)) for x, y in out["simple"])
        if not worst <= 1e-3:
            return f"simple trace off the Gaussian envelope by {worst:.3g} (limit 1e-3)"
        top = inp["max_pi"] * math.pi
        amp = [abs(y) for x, y in out["bb1"] if abs(x - top) <= 1e-9]
        if len(amp) != 1 or not amp[0] >= 0.98:
            return f"corrected amplitude at {inp['max_pi']}pi is {amp} (limit >= 0.98)"
        return None

    def numbers(self, out):
        return [y for _, y in out["bb1"]] + [y for _, y in out["simple"]]


class EchoFit:
    """Seeded CP and CPMG pairs, each followed by a cold
    ``estimate_rotation_error``: the paper's echo-train protocol.

    n is 16 or 32 (one 16 and two 32 per block), eps_true is in
    [0.02, 0.25] and 40% of pairs carry a T2 envelope.  Every fit in a
    process gets its own tau, so the estimator's model cache starts cold, as
    it does in one CLI process per fit.  eps_true stays inside the
    estimator's default bracket [0, 0.3]: the known out-of-bracket and
    wrong-ensemble defects are robustness cases for the estimator's own
    tests, not traffic, so this workload does not exercise them.
    """

    name = "echo_fit"
    warmup = False
    PROFILE_BLOCKS = 1

    def __init__(self):
        self._fits = 0

    def _op(self, rng, n):
        t2 = rng.uniform(20.0, 200.0) if rng.random() < 0.4 else None
        return {"n": n, "eps": rng.uniform(0.02, 0.25), "t2": t2}

    def blocks(self, *label):
        rng = _rng(self.name, *label)
        while True:
            yield [self._op(rng, n) for n in rng.sample((16, 32, 32), 3)]

    def setup_input(self, seed):
        return self._op(_rng(self.name, "setup", seed), 32)

    def prepare(self, inp):
        self._fits += 1
        return dict(inp, tau=1.0 + 1e-3 * self._fits)

    def run(self, inp):
        sp = spinpulse
        n, eps, t2, tau = inp["n"], inp["eps"], inp["t2"], inp["tau"]
        cp = sp.echo_train("cp", n, eps, t2_envelope=t2, tau=tau)
        cpmg = sp.echo_train("cpmg", n, eps, t2_envelope=t2, tau=tau)
        eps_hat, residual = sp.estimate_rotation_error(cp, cpmg)
        return {"cpmg": [float(v) for v in cpmg.values], "eps_hat": float(eps_hat),
                "residual": float(residual)}

    def check(self, inp, out):
        eps, eps_hat = inp["eps"], out["eps_hat"]
        if not abs(eps_hat - eps) <= 0.1 * eps:
            return f"eps_hat {eps_hat:.6g} misses eps_true {eps:.6g} by more than 10%"
        if not math.isfinite(out["residual"]):
            return "non-finite fit residual"
        return None

    def numbers(self, out):
        return [out["eps_hat"], out["residual"]]

    @staticmethod
    def oracle_miss(root, inp, out):
        """Largest deviation of the CPMG train from the brute-force oracle."""
        oracle = reference.echo_train_oracle(root)
        amps = oracle("cpmg", inp["n"], inp["eps"], tau=inp["tau"])
        tau, t2 = inp["tau"], inp["t2"]
        worst = 0.0
        for k, (got, want) in enumerate(zip(out["cpmg"], amps), start=1):
            if t2 is not None:
                want *= math.exp(-2.0 * tau * k / t2)
            worst = max(worst, abs(got - want))
        return worst


# Phase channels a generated pulse may use, as DSL literals.
_PHASES = ("0pi", "0.5pi", "1pi", "1.5pi", "90deg", "180deg", "270deg", "2pi")
_UNITS = {"pi": math.pi, "deg": math.pi / 180.0}
_TWO_PI = 2.0 * math.pi
_MAX_PULSES = 160


def _literal(text):
    for unit, scale in _UNITS.items():
        if text.endswith(unit):
            return float(text[: -len(unit)]) * scale
    raise ValueError(text)


class ProgramCheck:
    """Random pulse programs with nested repeats, delays, acquires, phases and
    bb1 statements, in the style of ``tests/oracles.random_program``.

    One operation: the DSL text goes through ``cli.main(["parse", ...])`` and
    a ``format_program``/``parse_program`` round trip; the program is
    propagated one spin at a time with ``propagate`` under four error models
    (the nodes of a two-point Gaussian amplitude by two-point uniform
    detuning ensemble, with per-channel phase offsets); then ``bb1_fidelity``,
    ``scan_order`` and ``fidelity --bb1`` through ``cli.main``.  This covers
    su2, dsl, cli, sequence and the scalar propagation path that the other
    workloads bypass.
    """

    name = "program_check"
    warmup = True
    BLOCK = 10
    PROFILE_BLOCKS = 5
    SCAN = ((0.02, 0.2), 7)

    def __init__(self, workdir):
        import spinpulse.cli  # noqa: F401  (part of this workload's set-up cost)

        self.path = os.path.join(workdir, "program.sp")

    def _element(self, rng, level, lines, pad):
        kinds = ["pulse", "pulse", "delay", "acquire", "bb1"]
        if level < 3:
            kinds.append("repeat")
        kind = rng.choice(kinds)
        kw = kind.upper() if rng.random() < 0.1 else kind
        if kind == "pulse":
            if rng.random() < 0.5:
                theta = f"{rng.uniform(0.0, 4.0):.6g}pi"
            else:
                theta = f"{rng.uniform(0.0, 720.0):.6g}deg"
            phase = rng.choice(_PHASES)
            lines.append(f"{pad}{kw} theta={theta} phase={phase}")
            return [("pulse", _literal(theta), _literal(phase) % _TWO_PI)]
        if kind == "delay":
            tau = 10.0 ** rng.uniform(-7.0, 0.0)
            lines.append(f"{pad}{kw} {tau!r}")
            return [("delay", tau)]
        if kind == "acquire":
            lines.append(f"{pad}{kw}  # sample")
            return [("acquire",)]
        if kind == "bb1":
            text = f"{rng.uniform(0.25, 2.0):.4g}pi"
            theta = _literal(text)
            phi1 = reference.bb1_phi1(theta)
            lines.append(f"{pad}{kw} theta={text}")
            return [("pulse", theta, 0.0), ("pulse", math.pi, phi1 % _TWO_PI),
                    ("pulse", _TWO_PI, (3.0 * phi1) % _TWO_PI), ("pulse", math.pi, phi1 % _TWO_PI)]
        count = rng.randint(1, 4)
        lines.append(f"{pad}{kw} {count} {{")
        body = []
        for _ in range(rng.randint(1, 3)):
            body += self._element(rng, level + 1, lines, pad + "  ")
        lines.append(f"{pad}}}")
        return [("repeat", count, tuple(body))]

    def _program(self, rng):
        while True:
            lines, elements = ["# generated program"], []
            for _ in range(rng.randint(1, 6)):
                elements += self._element(rng, 0, lines, "")
            pulses = sum(1 for el in reference.unrolled(elements) if el[0] == "pulse")
            if pulses <= _MAX_PULSES:
                return "\n".join(lines) + "\n", tuple(elements)

    def _op(self, rng):
        text, elements = self._program(rng)
        channels = rng.sample((0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi), 2)
        return {
            "text": text,
            "elements": elements,
            "offsets": tuple((c, rng.uniform(-0.05, 0.05)) for c in channels),
            "sigma": rng.uniform(0.01, 0.1),
            "span": rng.uniform(0.5, 5.0),
            "theta": rng.uniform(0.5, 2.0) * math.pi,
            "epsilon": rng.uniform(0.02, 0.2),
            "dphi": (rng.uniform(-0.01, 0.01) * math.pi, rng.uniform(-0.01, 0.01) * math.pi),
        }

    def blocks(self, *label):
        rng = _rng(self.name, *label)
        while True:
            yield [self._op(rng) for _ in range(self.BLOCK)]

    def setup_input(self, seed):
        return self._op(_rng(self.name, "setup", seed))

    def prepare(self, inp):
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(inp["text"])
        return inp

    def run(self, inp):
        sp = spinpulse
        rc_parse, canonical_cli, err_parse = _cli(["parse", self.path])
        program = sp.parse_program(inp["text"])
        canonical = sp.format_program(program)
        reparsed = sp.parse_program(canonical)
        spec = sp.EnsembleSpec(sp.Gaussian(0.0, inp["sigma"]),
                               sp.Uniform(-inp["span"], inp["span"]), nodes=2)
        nodes = sp.ensemble_nodes(spec)
        states = [
            sp.propagate(program, sp.ErrorModel(eps, inp["offsets"]), delta).vector.tolist()
            for eps, delta, _ in nodes
        ]
        theta, epsilon, (d1, d2) = inp["theta"], inp["epsilon"], inp["dphi"]
        fid = sp.bb1_fidelity(theta, epsilon, (d1, d2))
        scan, slope = sp.scan_order(theta, *self.SCAN)
        # "--flag=value", so argparse takes a negative offset as a value, not an option.
        rc_fid, fid_cli, err_fid = _cli([
            "fidelity", f"--theta={theta!r}rad", f"--epsilon={epsilon!r}", "--bb1",
            f"--dphi1={d1!r}rad", f"--dphi2={d2!r}rad",
        ])
        return {
            "rc": (rc_parse, rc_fid), "stderr": err_parse + err_fid,
            "program": program, "reparsed": reparsed,
            "canonical": canonical, "canonical_cli": canonical_cli, "fidelity_cli": fid_cli,
            "nodes": nodes, "states": states, "fidelity": fid,
            "scan": scan.points, "slope": slope,
            "artifact_bytes": len(canonical_cli.encode()) + len(fid_cli.encode()),
        }

    def check(self, inp, out):
        if out["rc"] != (0, 0):
            return f"CLI exit codes {out['rc']}: {out['stderr'].strip()[:200]}"
        if out["program"] != self._expected(inp["elements"]):
            return "parsed program differs from the generated one"
        if out["reparsed"] != out["program"]:
            return "format_program/parse_program round trip changed the program"
        if out["canonical_cli"] != out["canonical"]:
            return "'parse' CLI output differs from format_program"
        sigma, d = inp["sigma"], inp["span"] / math.sqrt(3.0)
        want = [(e, dl, 0.25) for e in (-sigma, sigma) for dl in (-d, d)]
        if len(out["nodes"]) != 4 or any(
            abs(a - b) > 1e-12 for got, exp in zip(out["nodes"], want) for a, b in zip(got, exp)
        ):
            return f"ensemble nodes {out['nodes']} differ from {want}"
        for (eps, delta, _), state in zip(out["nodes"], out["states"]):
            ref = reference.propagate(inp["elements"], eps, inp["offsets"], delta)
            miss = max(abs(a - b) for a, b in zip(state, ref))
            if not miss <= 1e-12:
                return f"propagate differs from the 2x2 product by {miss:.3g} (limit 1e-12)"
        theta, epsilon, dphi = inp["theta"], inp["epsilon"], inp["dphi"]
        ref_fid = reference.bb1_fidelity(theta, epsilon, dphi)
        if not abs(out["fidelity"] - ref_fid) <= 1e-12:
            return f"bb1_fidelity {out['fidelity']!r} vs reference {ref_fid!r}"
        (lo, hi), count = self.SCAN
        eps = [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]
        infid = [1.0 - reference.bb1_fidelity(theta, e, (0.0, 0.0)) for e in eps]
        if len(out["scan"]) != count or any(
            abs(e - ge) > 1e-12 * e or abs(i - gi) > 1e-12
            for (ge, gi), e, i in zip(out["scan"], eps, infid)
        ):
            return "scan_order points differ from the reference infidelities"
        slope = reference.lsq_slope([math.log(e) for e in eps], [math.log(i) for i in infid])
        if out["slope"] is None or not abs(out["slope"] - slope) <= 1e-3:
            return f"scan_order slope {out['slope']} vs reference {slope:.6g}"
        fields = dict(part.split("=", 1) for part in out["fidelity_cli"].split())
        if not abs(float(fields["F"]) - ref_fid) <= 1e-10:
            return f"'fidelity --bb1' printed F={fields['F']}, reference {ref_fid!r}"
        return None

    def _expected(self, elements):
        sp = spinpulse

        def build(els):
            out = []
            for el in els:
                if el[0] == "pulse":
                    out.append(sp.Pulse(el[1], el[2]))
                elif el[0] == "delay":
                    out.append(sp.Delay(el[1]))
                elif el[0] == "acquire":
                    out.append(sp.Acquire())
                else:
                    out.append(sp.Repeat(el[1], tuple(build(el[2]))))
            return out

        return sp.PulseProgram(tuple(build(elements)))

    def numbers(self, out):
        nums = [out["fidelity"], out["slope"]] + [i for _, i in out["scan"]]
        for state in out["states"]:
            for z in state:
                nums += [z.real, z.imag]
        return nums


NAMES = ("nutation", "echo_fit", "program_check")


def make(name, workdir):
    if name == "nutation":
        return Nutation()
    if name == "echo_fit":
        return EchoFit()
    return ProgramCheck(workdir)
