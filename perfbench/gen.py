"""Seeded inputs for the benchmark workloads, and the reference results the
benchmark checks the program against.

Nothing here times anything or calls into the kernel's static layers: every
expected contract string, ancestor set, delivered value and demo output line
is computed from the shape the generator chose, so a wrong answer from the
program cannot also be the reference.

Shapes are fixed and only names, types, values and declaration order depend
on the seed, so that every seed costs the same work and the per-emit counts
(activations, pulls, deliveries, taints) are identical across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from scckit import DataType, PictureData, Value, make_picture

# -- webcam stream -----------------------------------------------------------

#: Emits per block. Each block has four quarters of four emits; each quarter
#: starts with a `set IP` write, and exactly one write per block is the empty
#: ad, so 12 emits per block deliver (4 activations) and 4 do not (3).
BLOCK_EMITS = 16
_QUARTERS = 4
_AD_ALPHABET = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789\"\\"
WEBCAM_TAINTS = frozenset({"Camera", "IP"})

#: Contract lines of `scc check --contracts` on the webcam spec, from the paper.
WEBCAM_CONTRACT_LINES = (
    "ProcessPicture: (-> picture? (-> picture? void?) none/c)",
    "MakeAd: (-> (-> string?) string?)",
    "ComposeDisplay: (-> picture? (-> string?) (-> picture? void?) (-> void?) none/c)",
    "Display: (-> picture? (-> picture? void?) void?)",
)


@dataclass(frozen=True)
class WebcamStep:
    """One step of the stream: a `set IP` write (ad is not None) or a Camera emit.

    For an emit, ``expected`` is the frame the Screen must receive, or None
    when the current ad is empty and ComposeDisplay withholds the frame.
    """

    ad: str | None = None
    frame: Value | None = None
    expected: Value | None = None


def _ad_text(rng: random.Random) -> str:
    return "".join(rng.choice(_AD_ALPHABET) for _ in range(rng.randint(1, 16)))


def webcam_stream(seed: int, blocks: int) -> list[WebcamStep]:
    rng = random.Random(seed)
    steps = []
    for _ in range(blocks):
        empty_quarter = rng.randrange(_QUARTERS)
        for q in range(_QUARTERS):
            ad = "" if q == empty_quarter else _ad_text(rng)
            steps.append(WebcamStep(ad=ad))
            for _ in range(BLOCK_EMITS // _QUARTERS):
                w, h, s = rng.randint(1, 1920), rng.randint(1, 1080), rng.randrange(1 << 32)
                frame = make_picture(w, h, s)
                expected = None if ad == "" else Value(DataType.PICTURE, PictureData(w, h, s, (ad,)))
                steps.append(WebcamStep(frame=frame, expected=expected))
    return steps


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def scenario_text(steps: list[WebcamStep]) -> str:
    """The stream as a `.scn` script for `scc demo --scenario`."""
    lines = ["# Generated webcam stream: ads interleaved with camera frames."]
    for step in steps:
        if step.ad is not None:
            lines.append(f"set IP {_quote(step.ad)}")
        else:
            p = step.frame.payload
            lines.append(f"emit Camera picture({p.width}x{p.height},seed={p.seed})")
    return "\n".join(lines) + "\n"


def demo_output(steps: list[WebcamStep]) -> str:
    """Expected stdout of `scc demo` on ``scenario_text(steps)``."""
    lines = []
    for step in steps:
        if step.expected is not None:
            p = step.expected.payload
            overlays = ",".join(_quote(t) for t in p.overlays)
            lines.append(f"Screen <- picture({p.width}x{p.height},seed={p.seed},"
                         f"overlays=[{overlays}]) taints={{Camera,IP}}")
    return "".join(line + "\n" for line in lines)


# -- large spec ----------------------------------------------------------------

# Each pipeline: two sources, a when-required get chain, a when-provided publish
# chain whose tail pulls the end of the get chain, and controllers on chain
# positions that each command their own action. Get chains stay far below the
# pull depth at which the runtime runs out of interpreter stack (a chain of
# about 250 fails, 200 runs; tracing adds frames per level), because that
# failure is a known kernel defect with its own tests, not what this measures.
PIPELINES = 8
GET_CHAIN = 50
PUBLISH_CHAIN = 100
FANOUT = 24

_PRED = {DataType.INT: "int?", DataType.STRING: "string?"}


@dataclass(frozen=True)
class Pipeline:
    index: int
    type: DataType
    step: object  # added (Int) or appended (String) at every chain stage
    controller_positions: tuple[int, ...]  # publish-chain index each controller listens to
    length_get: int
    length_pub: int

    def name(self, role: str, k: int | None = None) -> str:
        return f"{role}{self.index}" if k is None else f"{role}{self.index}_{k}"

    @property
    def src(self) -> str:
        return self.name("Src")

    @property
    def trg(self) -> str:
        return self.name("Trg")

    def published(self, k: int, src, trg):
        """Value published by publish-chain stage ``k`` after emitting ``trg``."""
        out = trg
        for _ in range(min(k + 1, self.length_pub - 1)):
            out = out + self.step
        if k == self.length_pub - 1:
            out = out + self.pulled(src)
        return out

    def pulled(self, src):
        """Value of the last get-chain stage when the get source holds ``src``."""
        out = src
        for _ in range(self.length_get):
            out = out + self.step
        return out


@dataclass(frozen=True)
class LargeSpec:
    text: str
    pipelines: tuple[Pipeline, ...]
    contract_lines: tuple[str, ...]  # `name: contract`, in declaration order
    ancestors: dict  # action name -> frozenset of source names
    decl_count: int
    edge_count: int

    def impls(self) -> dict:
        """Implementations for every context and controller, keyed by name."""
        table = {}
        for p in self.pipelines:
            step = p.step
            for k in range(p.length_get):
                table[p.name("Get", k)] = lambda get, step=step: get() + step
            for k in range(p.length_pub - 1):
                table[p.name("Pub", k)] = lambda x, publish, step=step: publish(x + step)
            table[p.name("Pub", p.length_pub - 1)] = lambda x, get, publish: publish(x + get())
            for j in range(len(p.controller_positions)):
                table[p.name("Ctl", j)] = lambda x, do: do(x)
        return table


def _value_of(rng: random.Random, t: DataType):
    if t is DataType.INT:
        return rng.randint(-1000, 1000)
    return "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 6)))


def large_spec(seed: int, pipelines: int = PIPELINES, get_chain: int = GET_CHAIN,
               publish_chain: int = PUBLISH_CHAIN, fanout: int = FANOUT) -> LargeSpec:
    rng = random.Random(seed)
    # Half the pipelines carry Int and half String, whatever the seed.
    types = [DataType.INT, DataType.STRING] * (pipelines // 2) + [DataType.INT] * (pipelines % 2)
    rng.shuffle(types)
    tail_controllers = fanout // 2
    built, blocks = [], []
    for i, t in enumerate(types):
        step = rng.randint(1, 9) if t is DataType.INT else rng.choice("xyz")
        mids = [rng.randrange(publish_chain - 1) for _ in range(fanout - tail_controllers)]
        positions = [publish_chain - 1] * tail_controllers + mids
        rng.shuffle(positions)
        p = Pipeline(i, t, step, tuple(positions), get_chain, publish_chain)
        built.append(p)
        blocks.extend(_pipeline_decls(p))
    rng.shuffle(blocks)

    lines = [f"; Generated: {pipelines} pipelines, get chain {get_chain}, "
             f"publish chain {publish_chain}, fan-out {fanout}."]
    contract_lines = []
    for text, contract in blocks:
        lines.append(text)
        if contract is not None:
            contract_lines.append(contract)
    ancestors = {}
    for p in built:
        for j, k in enumerate(p.controller_positions):
            tail = k == p.length_pub - 1
            ancestors[p.name("Out", j)] = frozenset({p.src, p.trg} if tail else {p.trg})
    # Edges: one per chain stage (publish or pull), plus the tail's pull,
    # plus a publish and a command edge per controller.
    edges = pipelines * (get_chain + publish_chain + 1 + 2 * fanout)
    return LargeSpec("\n".join(lines) + "\n", tuple(built), tuple(contract_lines),
                     ancestors, len(blocks), edges)


def _pipeline_decls(p: Pipeline) -> list[tuple[str, str | None]]:
    t, pred = p.type.value, _PRED[p.type]
    out = [(f"(define-source {p.src} {t})", None), (f"(define-source {p.trg} {t})", None)]
    prev = p.src
    for k in range(p.length_get):
        name = p.name("Get", k)
        out.append((f"(define-context {name} {t} [when-required get {prev}])",
                    f"{name}: (-> (-> {pred}) {pred})"))
        prev = name
    last_get, prev = prev, p.trg
    for k in range(p.length_pub):
        name = p.name("Pub", k)
        if k == p.length_pub - 1:
            out.append((f"(define-context {name} {t} [when-provided {prev} get {last_get} always_publish])",
                        f"{name}: (-> {pred} (-> {pred}) (-> {pred} void?) none/c)"))
        else:
            out.append((f"(define-context {name} {t} [when-provided {prev} always_publish])",
                        f"{name}: (-> {pred} (-> {pred} void?) none/c)"))
        prev = name
    for j, k in enumerate(p.controller_positions):
        out.append((f"(define-action {p.name('Out', j)} {t})", None))
        out.append((f"(define-controller {p.name('Ctl', j)} [when-provided {p.name('Pub', k)} "
                    f"do {p.name('Out', j)}])",
                    f"{p.name('Ctl', j)}: (-> {pred} (-> {pred} void?) void?)"))
    return out


@dataclass(frozen=True)
class BurstEmit:
    pipeline: Pipeline
    src: Value
    trg: Value
    expected: tuple  # (action, Value, taints) per controller, sorted by action


def burst(spec: LargeSpec, seed: int, rounds: int) -> list[BurstEmit]:
    """Emits that pull through every chain: per round, one per pipeline."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        for p in spec.pipelines:
            s, t = _value_of(rng, p.type), _value_of(rng, p.type)
            expected = []
            for j, k in enumerate(p.controller_positions):
                tail = k == p.length_pub - 1
                expected.append((p.name("Out", j), Value(p.type, p.published(k, s, t)),
                                 frozenset({p.src, p.trg} if tail else {p.trg})))
            out.append(BurstEmit(p, Value(p.type, s), Value(p.type, t), tuple(sorted(expected))))
    return out
