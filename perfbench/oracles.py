"""Output checks that do not come from the synthesizer.

Each oracle returns a list of problems; an empty list means the output is
correct.  None compares hole values with a stored answer: candidate
canonicalization keeps the first verifying value per hole, so a correct
solver change may legitimately pick different ones.

* Two-stage RV32I core: a seeded program over the synthesized
  instructions runs on the completed core (``CompiledSimulator``) and on
  the golden ISS; register files and data memory must match.
* Service jobs: every returned design is parsed back and must pass
  ``verify_design`` against its problem's ILA; a job that is not ``done``
  fails.
"""

from __future__ import annotations

from repro.oyster import ast as oy


def flip_hole(design, hole):
    """``design`` with the value of former hole ``hole`` (a ``HoleDecl``)
    flipped in its lowest bit, everywhere it is used."""
    stmts = []
    found = False
    for stmt in design.stmts:
        if isinstance(stmt, oy.Assign) and stmt.target == hole.name:
            stmt = oy.Assign(stmt.target, oy.Binop(
                "^", stmt.expr, oy.Const(1, hole.width)))
            found = True
        stmts.append(stmt)
    if not found:
        raise ValueError(f"{hole.name!r} is not assigned in {design.name!r}")
    return design.with_stmts(stmts)


# -- two-stage RV32I core ------------------------------------------------


def riscv_program(rng, names, length):
    """A random program over ``names`` with forward-only branches, ending
    in ``beq x0, x0, 0`` (a halt loop), so it always terminates."""
    from repro.designs.riscv.encodings import INSTRUCTIONS

    program = []
    for index in range(length):
        name = rng.choice(names)
        fmt = INSTRUCTIONS[name].fmt
        kwargs = {"rd": rng.randrange(32), "rs1": rng.randrange(32),
                  "rs2": rng.randrange(32)}
        if fmt == "B":
            # Compare a register with itself or a random one; land on a
            # later instruction (at most the halt).
            kwargs["rs2"] = rng.choice([kwargs["rs1"], rng.randrange(32)])
            kwargs["imm"] = 4 * rng.randint(1, min(4, length - index))
            kwargs.pop("rd")
        elif fmt == "U":
            kwargs["imm"] = rng.randrange(1 << 32) & 0xFFFFF000
        elif fmt in ("I", "I-SHAMT"):
            kwargs["imm"] = rng.randrange(-2048, 2048)
        elif fmt != "R":
            raise ValueError(f"no program generator for {name!r} ({fmt})")
        program.append((name, kwargs))
    program.append(("beq", {"rs1": 0, "rs2": 0, "imm": 0}))
    return program


def riscv_cosim(design, names, rng, length=48):
    """Co-simulate ``design`` and the golden ISS on a seeded program."""
    from repro.designs.riscv.encodings import assemble
    from repro.designs.riscv.iss import GoldenISS
    from repro.oyster.compiled import CompiledSimulator

    program = riscv_program(rng, names, length)
    words = assemble(program)
    halt = 4 * (len(program) - 1)
    regs = {i: rng.randrange(1 << 32) for i in range(1, 32)}
    data = {w: rng.randrange(1 << 32) for w in range(128, 160)}
    iss = GoldenISS(memory={**words, **data}, pc=0, regs=regs)
    steps = 0
    while iss.pc != halt:
        if steps > 4 * len(program):
            return [f"golden ISS did not reach the halt at {halt:#x}"]
        iss.step()
        steps += 1
    register_init = {"pc": 0}
    if any(reg.name == "fetch_pc" for reg in design.registers):
        register_init["fetch_pc"] = 0
    sim = CompiledSimulator(
        design, memory_init={"i_mem": dict(words), "d_mem": dict(data),
                             "rf": dict(regs)},
        register_init=register_init)
    # Enough cycles for every executed instruction plus a pipeline flush
    # per taken branch; extra cycles spin in the halt loop.
    for _ in range(2 * steps + 8):
        sim.step({})
    problems = [
        f"x{reg}: core {sim.peek_memory('rf', reg):#x} "
        f"iss {iss.regs[reg]:#x}"
        for reg in range(1, 32)
        if sim.peek_memory("rf", reg) != iss.regs[reg]
    ]
    problems += [
        f"mem[{word}]: core {sim.peek_memory('d_mem', word):#x} "
        f"iss {iss.memory[word]:#x}"
        for word in data if sim.peek_memory("d_mem", word) != iss.memory[word]
    ]
    return problems


# -- service jobs --------------------------------------------------------


def service_job(job, problem):
    """Check one finished service job against the ``SynthesisProblem`` it
    was built from: it must be ``done`` and its design must verify."""
    from repro.oyster import parse_design
    from repro.synthesis import verify_design

    if job.get("state") != "done" or not job.get("result"):
        return [f"job ended {job.get('state')!r}"]
    completed = parse_design(job["result"]["design"])
    verdict = verify_design(completed, problem.spec, problem.alpha,
                            const_mems=problem.const_mems)
    return [] if verdict.ok else [verdict.summary()]
