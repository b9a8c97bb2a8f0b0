"""Tests for the AES accelerator: golden model, spec, synthesis, hardware."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs.aes import (
    RCON,
    SBOX,
    aes128_encrypt_block,
    build_problem,
    expand_key,
)
from repro.designs.aes.golden import (
    bytes_to_int,
    mix_columns,
    next_round_key,
    shift_rows,
    sub_bytes,
)
from repro.designs.aes.sketch import RCON_INIT, SBOX_INIT
from repro.oyster.compiled import CompiledSimulator
from repro.synthesis import synthesize, verify_design

FIPS_PT = 0x3243F6A8885A308D313198A2E0370734
FIPS_KEY = 0x2B7E151628AED2A6ABF7158809CF4F3C
FIPS_CT = 0x3925841D02DC09FBDC118597196A0B32


def test_sbox_known_values():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert len(set(SBOX)) == 256  # a permutation


def test_rcon_values():
    assert RCON[1:11] == (1, 2, 4, 8, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def test_fips197_appendix_b():
    assert aes128_encrypt_block(FIPS_PT, FIPS_KEY) == FIPS_CT


def test_fips197_appendix_c1():
    assert aes128_encrypt_block(
        0x00112233445566778899AABBCCDDEEFF,
        0x000102030405060708090A0B0C0D0E0F,
    ) == 0x69C4E0D86A7B0430D8CDB78070B4C55A


def test_key_expansion_first_step():
    keys = expand_key(FIPS_KEY)
    # FIPS-197 A.1: w[4..7] of the expanded key.
    assert keys[1] == 0xA0FAFE1788542CB123A339392A6C7605


def test_shift_rows_example():
    state = bytes_to_int(range(16))
    shifted = shift_rows(state)
    out = list(shifted.to_bytes(16, "big"))
    # Row 0 unshifted: byte 0 stays.
    assert out[0] == 0
    # Row 1 rotates by one column: position (c=0, r=1) gets (c=1, r=1) = 5.
    assert out[1] == 5


def test_mix_columns_known_vector():
    # FIPS-197 / common test: column db 13 53 45 -> 8e 4d a1 bc
    state = bytes_to_int([0xDB, 0x13, 0x53, 0x45] + [0] * 12)
    mixed = list(mix_columns(state).to_bytes(16, "big"))
    assert mixed[:4] == [0x8E, 0x4D, 0xA1, 0xBC]


@settings(max_examples=20, deadline=None)
@given(
    pt=st.integers(min_value=0, max_value=(1 << 128) - 1),
    key=st.integers(min_value=0, max_value=(1 << 128) - 1),
)
def test_encrypt_is_length_preserving_and_deterministic(pt, key):
    first = aes128_encrypt_block(pt, key)
    assert 0 <= first < (1 << 128)
    assert aes128_encrypt_block(pt, key) == first


@pytest.fixture(scope="module")
def synthesized():
    problem = build_problem()
    result = synthesize(problem, timeout=600)
    return problem, result


@pytest.mark.slow
def test_aes_synthesis_verifies(synthesized):
    """Full independent verification (the unfolded FSM queries are large)."""
    problem, result = synthesized
    verdict = verify_design(
        result.completed_design, problem.spec, problem.alpha,
        const_mems=problem.const_mems,
    )
    assert verdict.ok, verdict.summary()


def test_aes_state_hole_dispatches_on_round(synthesized):
    # The per-round "state" values are don't-cares for every instruction
    # (the independent verifier and the FIPS-197 simulations both accept a
    # constant), so CEGIS canonicalization zeroes them and the control
    # union emits a bare constant instead of a round-dispatching if-tree —
    # the Section 5.3 control-size win.  A dispatch (Ite) would also be
    # correct; what must never appear is an unresolved hole.
    _, result = synthesized
    from repro.oyster import ast

    assert isinstance(result.hole_exprs["state"], (ast.Const, ast.Ite))
    assert result.hole_exprs["state"] == ast.Const(0, 2)


def test_final_round_polish_decides_by_folding(synthesized):
    # Polish probes FinalRound's trial candidates with every hole folded
    # to a constant, so a trial whose negation folds away is decided with
    # no search; the instruction's whole run takes a few hundred
    # conflicts.  Probing with the lowered hole left symbolic instead
    # spent about 300,000 conflicts proving the last trial.
    _, result = synthesized
    (final,) = [solution for solution in result.per_instruction
                if solution.instruction_name == "FinalRound"]
    assert final.conflicts < 10_000


def _run_accelerator(design, plaintext, key, cycles=11):
    sim = CompiledSimulator(
        design,
        memory_init={"sbox": SBOX_INIT, "rcon": RCON_INIT},
    )
    for _ in range(cycles):
        sim.step({"key_in": key, "plaintext": plaintext})
    return sim.peek("ciphertext")


def test_accelerator_matches_fips(synthesized):
    _, result = synthesized
    assert _run_accelerator(
        result.completed_design, FIPS_PT, FIPS_KEY
    ) == FIPS_CT


@settings(max_examples=5, deadline=None)
@given(
    pt=st.integers(min_value=0, max_value=(1 << 128) - 1),
    key=st.integers(min_value=0, max_value=(1 << 128) - 1),
)
def test_accelerator_matches_golden_model(synthesized, pt, key):
    _, result = synthesized
    assert _run_accelerator(result.completed_design, pt, key) == (
        aes128_encrypt_block(pt, key)
    )


@pytest.mark.slow
def test_monolithic_aes_agrees(synthesized):
    problem, per_instruction = synthesized
    mono = synthesize(problem, mode="monolithic", timeout=600)
    assert _run_accelerator(mono.completed_design, FIPS_PT, FIPS_KEY) == (
        FIPS_CT
    )
