import copy
import dataclasses
import numpy as np
import pytest
from random import Random
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from conftest import build_round, plaintext_sum, random_inputs, run_plain_round

from secaggsim.aggserver import fedsgd_update
from secaggsim.counters import OpCounters
from secaggsim import simulation, useragent
from secaggsim.crypto import FAST_GROUP, POW_BATCH_MIN, TOY_GROUP, reconstruct_secret
from secaggsim.errors import ProtocolAbort, UnrecoverableRoundError
from secaggsim.fixedpoint import (
    ParamVector,
    SegmentSpec,
    dequantize_vector,
    quantize_vector,
    zeros,
)
from secaggsim.orgtree import TreeConfig, build_peer_sets, commits_digest, verify_setup
from secaggsim.scenarios import exactness_config
from secaggsim.simulation import run_scenario
from secaggsim.simulation import execute_round
from secaggsim.useragent import UserAgent
from secaggsim.wire import (
    ENTRY_BYTES,
    SECRET_MASK_KEY,
    SECRET_SELF_SEED,
    SERVER,
    SHARE_FIELDS,
    TAG_ADVERT,
    TAG_GLOBAL_MODEL,
    TAG_MASKED_UPLOAD,
    TAG_PEER_LIST,
    TAG_RAND_OPEN,
    TAG_REVEAL,
    TAG_SERVER_COMMIT,
    TAG_SHARE_MSG,
    TAG_TREE_COMMIT,
    TAG_UNMASK_REQUEST,
    TAG_UNMASK_RESPONSE,
    PeerHandle,
    PeerListMsg,
    RandOpenMsg,
    ShareMsg,
    TreeCommitMsg,
    UnmaskRequestMsg,
    UnmaskResponseMsg,
    decode_from,
    decode_record,
    encode_record,
    share_bodies,
    share_part,
)

SPEC = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)
SPEC20 = SegmentSpec(word_bits=20, frac_bits=4, low_bits=12)  # 4-byte elements with 12 spare bits
SPEC8 = SegmentSpec(word_bits=8, frac_bits=2, low_bits=7)
SPEC16 = SegmentSpec(word_bits=16, frac_bits=4, low_bits=8)
SPEC64 = SegmentSpec(word_bits=64, frac_bits=16, low_bits=32)
TREE22 = TreeConfig(height=2, degree=2, neighbor_radius=1, share_threshold=2)
TREE23 = TreeConfig(height=2, degree=3, neighbor_radius=1, share_threshold=2)
KEY_BYTES = SHARE_FIELDS[SECRET_MASK_KEY][1]  # 8
SEED_BYTES = SHARE_FIELDS[SECRET_SELF_SEED][1]  # 17


def _no_tree(tree: TreeConfig, leaf_size: int) -> TreeCommitMsg:
    """A TREE_COMMIT for agents driven without a server: the N that fills
    every leaf of ``tree`` with ``leaf_size`` members, so a PEER_LIST of
    that leaf size is one the agents accept."""
    return TreeCommitMsg(tree.leaf_count * leaf_size, bytes(32))


# -- masking algebra ---------------------------------------------------------------


def test_two_user_masks_cancel():
    """With two users sharing one pair mask, the masked sum minus the self
    masks equals the plaintext sum."""
    from secaggsim.crypto import KeyPair, derive_shared_seed, prg_expand, randomize_pub

    rng = Random(1)
    counters = OpCounters()
    agents = [
        UserAgent(u, group=FAST_GROUP, spec=SPEC, inter_mask_bits=10, tree=TREE22, counters=counters)
        for u in range(2)
    ]
    for agent in agents:
        agent.begin_round(Random(rng.getrandbits(64)), bytes(32))
        agent.open_rand(_no_tree(TREE22, 2))
    r = FAST_GROUP.random_exponent(rng)
    handles = [
        PeerHandle(FAST_GROUP.encode(randomize_pub(FAST_GROUP, agents[1].mask_keys.public, r)), 1, "intra"),
        PeerHandle(FAST_GROUP.encode(randomize_pub(FAST_GROUP, agents[0].mask_keys.public, r)), -1, "intra"),
    ]
    for u, agent in enumerate(agents):
        agent.receive_peer_list(PeerListMsg(u + 1, 2, (handles[u],)))
        agent.distribute_shares()
    xs = random_inputs(2, 16, SPEC, seed=5)
    ys = [agents[u].mask_input(xs[u]).vector(SPEC) for u in range(2)]
    masked_sum = (ys[0] + ys[1]) & np.uint64(SPEC.word_mask)
    for agent in agents:
        masked_sum = (masked_sum - prg_expand([agent.self_seed], 16, SPEC)[0]) & np.uint64(SPEC.word_mask)
    assert np.array_equal(masked_sum, plaintext_sum(xs, 16, SPEC))


@pytest.mark.parametrize("spec", [SPEC, SPEC20, SPEC8, SPEC16, SPEC64], ids=["w32", "w20", "w8", "w16", "w64"])
def test_mask_input_matches_rebinding_reference(spec):
    """The native-word accumulation equals the vec_add_mod / vec_sub_mod
    chain over the self mask and every pair mask, intra and inter, both
    signs, in a shuffled handle order.  The self mask and five plus intra
    masks overflow a 1- or 2-byte word, so the accumulator wraps."""
    from secaggsim.crypto import KeyPair, derive_shared_seed, prg_expand
    from secaggsim.fixedpoint import vec_add_mod, vec_sub_mod

    agent = UserAgent(0, group=FAST_GROUP, spec=spec, inter_mask_bits=6, tree=TREE22, counters=OpCounters())
    agent.begin_round(Random(3), bytes(32))
    agent.open_rand(_no_tree(TREE22, 2))
    rng = Random(4)
    plan = [(1, "intra")] * 5 + [(-1, "intra")] * 2 + [(1, "inter")] * 5 + [(-1, "inter")] * 2
    rng.shuffle(plan)
    handles = tuple(
        PeerHandle(FAST_GROUP.encode(KeyPair.generate(FAST_GROUP, rng).public), sign, kind) for sign, kind in plan
    )
    agent.receive_peer_list(PeerListMsg(1, 2, handles))
    agent.distribute_shares()
    x = random_inputs(1, 50, spec, seed=8)[0]
    self_mask = prg_expand([agent.self_seed], 50, spec)[0].astype(np.uint64)
    expect = vec_add_mod(x, ParamVector(self_mask, spec))
    plus_intra = self_mask.astype(object)  # exact integers: the sum a native word must wrap
    for h in handles:
        seed = derive_shared_seed(FAST_GROUP, int.from_bytes(h.randomized_pub, "big"), agent.mask_keys.secret)
        mask = ParamVector(prg_expand([seed], 50, spec, mask_bits=None if h.kind == "intra" else 6)[0], spec)
        expect = vec_add_mod(expect, mask) if h.sign == 1 else vec_sub_mod(expect, mask)
        if (h.sign, h.kind) == (1, "intra"):
            plus_intra = plus_intra + mask.values.astype(object)
    assert np.array_equal(agent.mask_input(x).vector(spec), expect.values)
    if spec.word_bits <= 16:
        assert max(plus_intra) >= 1 << spec.word_bits


def test_full_round_zero_inputs():
    inputs = {u: zeros(8, SPEC) for u in range(16)}
    result, *_ = run_plain_round(16, TREE22, SPEC, inputs, seed=2)
    assert int(result.total.values.max()) == 0


def test_full_round_plaintext_sum_27_subgroups():
    tree = TreeConfig(height=3, degree=3, neighbor_radius=2, share_threshold=3)
    inputs = random_inputs(135, 24, SPEC, seed=9)
    result, *_ = run_plain_round(135, tree, SPEC, inputs, seed=9)
    assert np.array_equal(result.total.values, plaintext_sum(inputs, 24, SPEC))
    assert result.n_eff == 135


def test_masked_upload_looks_uniform():
    """A single user's upload with one peer seed withheld from the server
    is uniform per element across re-randomized rounds."""
    from scipy import stats

    values = []
    for seed in range(300):
        inputs = {u: zeros(1, SPEC) for u in range(8)}
        tree = TreeConfig(height=1, degree=2, neighbor_radius=1, share_threshold=2)
        server, users, transport, _ = build_round(8, tree, SPEC)
        from secaggsim.simulation import execute_round

        execute_round(
            server=server,
            users=users,
            transport=transport,
            model=zeros(1, SPEC),
            inputs=inputs,
            round_seed=(seed, 0),
        )
        values.append(int(server._uploads[0][0]) if 0 in server._uploads else None)
    arr = np.array([v for v in values if v is not None], dtype=np.float64)
    counts, _ = np.histogram(arr, bins=8, range=(0, float(1 << SPEC.word_bits)))
    assert stats.chisquare(counts).pvalue > 0.01


# -- share distribution -------------------------------------------------------------


def _lone_agent(n_recipients=3, threshold=2):
    """An agent at point 1 of a share leaf of ``n_recipients``."""
    counters = OpCounters()
    tree = TreeConfig(height=0, degree=2, share_threshold=threshold)
    agent = UserAgent(0, group=FAST_GROUP, spec=SPEC, inter_mask_bits=10, tree=tree, counters=counters)
    agent.begin_round(Random(0), bytes(32))
    agent.open_rand(_no_tree(tree, n_recipients))
    agent.receive_peer_list(PeerListMsg(1, n_recipients, ()))
    return agent, counters


def _reconstruct_entries(bundle: ShareMsg, entries, secret_type: int) -> int:
    """One secret interpolated, in its field, from the given entries of the
    bundle of an owner at point 1, whose entry j is at point j + 2."""
    values = [int.from_bytes(share_part(bundle.bodies, j * ENTRY_BYTES, secret_type), "big") for j in entries]
    return reconstruct_secret([j + 2 for j in entries], values, SHARE_FIELDS[secret_type][0])


def test_share_counting_example():
    # n=3 recipients, t=2: two secrets, one retained share each -> 4 outbound
    # shares, packed two to an entry for the 2 other recipients, at points 2
    # and 3 (the retained entry is point 1); a key share takes 8 bytes, a
    # seed share 17
    agent, counters = _lone_agent()
    bundle = agent.distribute_shares()
    assert len(bundle.bodies) == 2 * ENTRY_BYTES == 2 * (KEY_BYTES + SEED_BYTES)
    parts = [share_part(bundle.bodies, j * ENTRY_BYTES, stype) for j in range(2) for stype in (1, 2)]
    assert [len(share) for share in parts] == [KEY_BYTES, SEED_BYTES] * 2
    assert counters.shares_created == 6
    seed = int.from_bytes(agent.self_seed, "big")
    for stype, secret in ((SECRET_MASK_KEY, agent.mask_keys.secret), (SECRET_SELF_SEED, seed)):
        assert _reconstruct_entries(bundle, range(2), stype) == secret


def test_share_reconstruct_self_seed():
    agent, _ = _lone_agent()
    bundle = agent.distribute_shares()
    got = _reconstruct_entries(bundle, range(2), SECRET_SELF_SEED)
    assert got == int.from_bytes(agent.self_seed, "big")


def test_share_recipient_list_too_small():
    from secaggsim.errors import ProtocolAbort

    agent, _ = _lone_agent(n_recipients=1, threshold=2)
    with pytest.raises(ProtocolAbort):
        agent.distribute_shares()


def test_phase_skip_is_protocol_abort():
    """A call out of phase order, here a masked upload asked for before the
    user's shares went out, aborts blamed on the server, whose messages
    drive every phase, and leaves the phase as it was; the guard is a typed
    error, so it survives ``python -O``."""
    from secaggsim.useragent import PHASE_COMMIT

    agent, counters = _lone_agent()
    with pytest.raises(ProtocolAbort, match="user 0 asked to move commit -> upload") as exc:
        agent.mask_input(zeros(4, SPEC))
    assert exc.value.blamed == "server"
    assert agent.phase == PHASE_COMMIT and not counters.prg_by_user


def _download(agent, owners_values):
    """A download bundle for ``agent``, decoded from its bytes as a round
    hands it over: one entry per mate with the given key and seed values."""
    bodies = b"".join(share_bodies(owners_values))
    return decode_from(SERVER, ShareMsg, ShareMsg(bodies).to_bytes())


def test_share_type_tag_enforced():
    agent, _ = _lone_agent()
    agent.distribute_shares()
    own = agent._held
    # a bundle with an entry missing is rejected whole
    with pytest.raises(ProtocolAbort) as exc:
        agent.receive_share(_download(agent, [(5, 6)]))
    assert exc.value.blamed == "server" and agent._held == own
    # a second bundle repeats every held (owner, type) slot and is rejected whole
    agent.receive_share(_download(agent, [(5, 6), (7, 8)]))
    held = agent._held
    with pytest.raises(ProtocolAbort) as exc:
        agent.receive_share(_download(agent, [(9, 9), (9, 9)]))
    assert exc.value.blamed == "server" and agent._held == held
    # owner point 2's entry sits one entry in
    assert share_part(held, ENTRY_BYTES, SECRET_MASK_KEY) == (5).to_bytes(KEY_BYTES, "big")


# -- unmask and the never-both rule ---------------------------------------------------


def _agent_with_shares():
    """An agent at point 1 of a leaf of 3 holding its mates' shares; the
    owner at point 2 is returned."""
    agent, _ = _lone_agent()
    agent.distribute_shares()
    agent.receive_share(_download(agent, [(22, 11), (33, 44)]))
    agent.phase = "upload"
    return agent, 2


def test_unmask_online_target_releases_self_seed():
    agent, owner = _agent_with_shares()
    resp = agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_SELF_SEED),)))
    assert resp.slots == ((True, (11).to_bytes(SEED_BYTES, "big")),)
    assert not resp.refused


def test_unmask_dropped_target_releases_mask_key():
    agent, owner = _agent_with_shares()
    resp = agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_MASK_KEY),)))
    assert resp.shares == ((22).to_bytes(KEY_BYTES, "big"),)


def test_never_both_refused():
    """A refusal answers its target in place, zero-filled, and the other
    targets of the request are still answered in their slots."""
    agent, owner = _agent_with_shares()
    agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_SELF_SEED),)))
    resp = agent.unmask_response(UnmaskRequestMsg(((3, SECRET_SELF_SEED), (owner, SECRET_MASK_KEY))))
    assert resp.shares == ((44).to_bytes(SEED_BYTES, "big"),)
    assert resp.refused == (1,)
    assert resp.slots[1] == (False, bytes(KEY_BYTES))


def test_never_both_forced_exclusion_is_recorded():
    agent, owner = _agent_with_shares()
    agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_SELF_SEED),)))
    resp = agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_MASK_KEY),), forced=True))
    assert resp.slots == ((True, (22).to_bytes(KEY_BYTES, "big")),)
    assert agent.forced_releases == [owner]


def test_conflicting_forced_self_seed_still_refused():
    # force-dropping only justifies mask-key release, never the reverse
    agent, owner = _agent_with_shares()
    agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_MASK_KEY),)))
    resp = agent.unmask_response(UnmaskRequestMsg(((owner, SECRET_SELF_SEED),), forced=True))
    assert resp.shares == ()
    assert resp.refused == (0,)


def test_held_share_outside_its_field_not_released():
    """A held share at or above its field's prime came in a bundle the
    server relayed: releasing it aborts the round blamed on the server,
    while p - 1, the largest element of each field, is released."""
    from secaggsim.crypto import KEY_SHARE_PRIME, SEED_SHARE_PRIME

    agent, _ = _lone_agent(n_recipients=5)
    agent.distribute_shares()
    # owners at points 2 to 5
    entries = [(KEY_SHARE_PRIME, 1), (KEY_SHARE_PRIME - 1, 1), (1, SEED_SHARE_PRIME), (1, SEED_SHARE_PRIME - 1)]
    agent.receive_share(_download(agent, entries))
    agent.phase = "upload"
    resp = agent.unmask_response(UnmaskRequestMsg(((3, SECRET_MASK_KEY), (5, SECRET_SELF_SEED))))
    assert [int.from_bytes(raw, "big") for raw in resp.shares] == [KEY_SHARE_PRIME - 1, SEED_SHARE_PRIME - 1]
    for target in ((2, SECRET_MASK_KEY), (4, SECRET_SELF_SEED)):
        with pytest.raises(ProtocolAbort, match="outside its field") as exc:
            agent.unmask_response(UnmaskRequestMsg((target,)))
        assert exc.value.blamed == "server"


# -- dropout recovery ------------------------------------------------------------------


def test_single_dropout_exact_sum():
    tree = TreeConfig(height=3, degree=3, neighbor_radius=2, share_threshold=3)
    inputs = random_inputs(162, 16, SPEC, seed=21)
    drop = {13}
    result, _, _, counters = run_plain_round(162, tree, SPEC, inputs, seed=21, pre_drop=drop)
    survivors = {u: x for u, x in inputs.items() if u not in drop}
    assert np.array_equal(result.total.values, plaintext_sum(survivors, 16, SPEC))
    assert counters.mask_cancellations > 0


def test_fifteen_percent_dropouts_exact_sum():
    tree = TreeConfig(height=2, degree=3, neighbor_radius=2, share_threshold=2)
    rng = Random(33)
    inputs = random_inputs(90, 12, SPEC, seed=33)
    drop = set(rng.sample(range(90), 13))
    result, *_ = run_plain_round(90, tree, SPEC, inputs, seed=33, pre_drop=drop)
    survivors = {u: x for u, x in inputs.items() if u not in drop}
    assert np.array_equal(result.total.values, plaintext_sum(survivors, 12, SPEC))


@pytest.mark.parametrize("group", [FAST_GROUP], ids=lambda g: g.name)
def test_dropout_round_matches_oracle_in_each_key_field(group):
    """Mask keys are shared in 2^63 + 29 with 8-byte shares, and a round
    with dropouts reconstructs them there exactly."""
    inputs = random_inputs(24, 8, SPEC, seed=35)
    drop = {2, 11, 17}
    result, server, users, counters = run_plain_round(24, TREE22, SPEC, inputs, seed=35, pre_drop=drop, group=group)
    survivors = {u: x for u, x in inputs.items() if u not in drop}
    assert np.array_equal(result.total.values, plaintext_sum(survivors, 8, SPEC))
    # a self seed per survivor and a mask key per dropout, each rebuilt once
    assert counters.mask_cancellations > 0 and counters.shares_reconstructed == len(survivors) + len(drop)
    assert all(len(u._held) == u._share_count * (KEY_BYTES + SEED_BYTES) for u in users)


class _FlagFirstLeaf:
    """Detector stand-in that flags the first non-void subgroup."""

    def detect(self, aggregates, model):
        return SimpleNamespace(flagged=[next(a.leaf for a in aggregates if not a.void)])


def test_oracle_dropout_round_with_exclusion():
    """The North-star oracle on a round with dropouts and an excluded leaf:
    the total is the included survivors' plaintext sum plus n_i * X_t for
    each excluded leaf, and every survivor counts once in n_eff."""
    from secaggsim.simulation import execute_round

    tree = TreeConfig(height=2, degree=3, neighbor_radius=2, share_threshold=2)
    model = quantize_vector(np.linspace(-1, 1, 10), SPEC)
    inputs = random_inputs(72, 10, SPEC, seed=61)
    drop = set(Random(61).sample(range(72), 11))
    online = {u: x for u, x in inputs.items() if u not in drop}
    server, users, transport, counters = build_round(72, tree, SPEC)
    result = execute_round(
        server=server, users=users, transport=transport, model=model,
        inputs=online, round_seed=(61, 0), pre_drop=drop, detector=_FlagFirstLeaf(),
    )
    leaf_of = server.setup.mask_assignment.leaf_of
    excluded = server.excluded_leaves(result.flagged)
    included = {u: x for u, x in online.items() if leaf_of[u] not in excluded}
    n_excluded = len(online) - len(included)
    assert n_excluded > 0 and counters.mask_cancellations > 0
    expect = (plaintext_sum(included, 10, SPEC) + model.values * np.uint64(n_excluded)) & np.uint64(SPEC.word_mask)
    assert np.array_equal(result.total.values, expect)
    assert result.n_eff == len(online)


@pytest.mark.parametrize("spec", [SPEC, SPEC16], ids=["w32", "w16"])
def test_leaf_sums_match_per_end_reference_with_one_row_budget(monkeypatch, spec):
    """With the PRG budget forced to one row, so that every ``add_masks``
    batch is split into single rows, the leaf sums ``aggregate_subgroups``
    leaves (self masks removed, pre-upload dropouts cancelled) and those
    the exclusion's ``recover_dropout`` leaves equal a uint64 reference
    built one mask at a time, and the aggregates keep the sums they were
    built on."""
    from secaggsim import crypto
    from secaggsim.crypto import derive_shared_seed, prg_expand

    monkeypatch.setattr(crypto, "PRG_BATCH_BYTES", 1)
    tree = TreeConfig(height=2, degree=3, neighbor_radius=2, share_threshold=2)
    m = 10
    inputs = random_inputs(72, m, spec, seed=61)
    drop = set(Random(61).sample(range(72), 11))
    server, users, transport, _ = build_round(72, tree, spec)
    before = {}
    finalize = server.finalize

    def finalize_after_snapshot(flagged, model):
        before["uploads"], before["sums"] = dict(server._uploads), dict(server._leaf_sums)
        return finalize(flagged, model)

    server.finalize = finalize_after_snapshot
    execute_round(
        server=server, users=users, transport=transport, model=zeros(m, spec),
        inputs={u: x for u, x in inputs.items() if u not in drop}, round_seed=(61, 0), pre_drop=drop,
        detector=_FlagFirstLeaf(),
    )
    wordmask = np.uint64(spec.word_mask)
    leaf_of = server.setup.mask_assignment.leaf_of
    uploads = before["uploads"]
    forced = {u for u in uploads if u in server._dropped}
    assert forced

    def mask(seed, bits=None):
        return prg_expand([seed], m, spec, mask_bits=bits)[0].astype(np.uint64)

    def cancel(ref, dropped, online):
        for d in sorted(dropped):
            for end in server._ends[d]:
                if end.peer in online:
                    seed = derive_shared_seed(server.group, end.rand_pub, users[d].mask_keys.secret)
                    pair_mask = mask(seed, None if end.kind == "intra" else server.inter_mask_bits)
                    leaf = leaf_of[end.peer]
                    ref[leaf] = (ref[leaf] + pair_mask if end.sign == 1 else ref[leaf] - pair_mask) & wordmask

    ref = {leaf: np.zeros(m, dtype=np.uint64) for leaf in before["sums"]}
    for u, y in uploads.items():
        ref[leaf_of[u]] = (ref[leaf_of[u]] + y - mask(users[u].self_seed)) & wordmask
    cancel(ref, drop, uploads)
    assert all(np.array_equal(before["sums"][leaf], ref[leaf]) for leaf in ref)
    assert all(np.array_equal(agg.full_sum.values, ref[agg.leaf]) for agg in server._aggregates)
    cancel(ref, forced, set(uploads) - forced)
    assert all(np.array_equal(server._leaf_sums[leaf], ref[leaf]) for leaf in ref)


def test_unrecoverable_below_threshold():
    # drop enough of one share subgroup that a survivor's self seed cannot
    # be reconstructed: explicit error, no silent corruption
    tree = TreeConfig(height=1, degree=2, neighbor_radius=1, share_threshold=4)
    inputs = random_inputs(10, 4, SPEC, seed=40)
    server, users, transport, _ = build_round(10, tree, SPEC)
    from secaggsim.simulation import execute_round

    # drop 4 of the 5 members of one share subgroup; find them after setup
    # by trial: drop users 0..3 and expect either recovery or the error
    with pytest.raises(UnrecoverableRoundError):
        execute_round(
            server=server,
            users=users,
            transport=transport,
            model=zeros(4, SPEC),
            inputs={u: inputs[u] for u in range(4, 10)},
            round_seed=(40, 0),
            pre_drop={0, 1, 2, 3},
        )


def test_round_with_every_user_dropped_is_unrecoverable():
    with pytest.raises(UnrecoverableRoundError, match="no uploads this round"):
        run_scenario(exactness_config(0, 10, 1, 2, dropout_rate=0.96))


class _FlagLeaves:
    """Detector stand-in that flags a fixed set of leaves."""

    def __init__(self, leaves: set[int]):
        self.leaves = leaves

    def detect(self, aggregates, model):
        return SimpleNamespace(flagged=sorted(self.leaves))


@st.composite
def _dropout_exclusion_rounds(draw):
    height, degree = draw(st.integers(0, 2)), draw(st.integers(2, 3))
    leaves = degree**height
    n = draw(st.integers(2 * leaves, 40))
    tree = TreeConfig(
        height=height,
        degree=degree,
        neighbor_radius=draw(st.integers(1, max(1, -(-n // leaves) // 2))),
        share_threshold=draw(st.integers(2, n // leaves)),
    )
    tree.validate_for(n)
    drop = draw(st.sets(st.integers(0, n - 1), max_size=n))
    flagged = draw(st.sets(st.integers(0, leaves - 1), max_size=leaves))
    return tree, n, draw(st.integers(1, 8)), drop, flagged, draw(st.integers(0, 2**32))


@given(_dropout_exclusion_rounds())
def test_oracle_dropouts_and_exclusion(case):
    """Exclusion is a forced dropout: sums, n_eff and the cancellation and
    PRG counts match a plaintext oracle on random trees, dropout sets and
    flagged sets, and a round fails exactly when a share leaf has fewer
    than t online members.  The server takes exactly t rows per secret it
    reconstructs, and forced releases target excluded leaves only."""
    tree, n, m, drop, flagged, seed = case
    inputs = random_inputs(n, m, SPEC, seed=seed)
    model = quantize_vector(np.random.default_rng(seed).uniform(-1, 1, m), SPEC)
    online = {u: x for u, x in inputs.items() if u not in drop}
    server, users, transport, counters = build_round(n, tree, SPEC)
    rows = refused = 0
    receive = server.receive_unmask

    def counting(user, msg):
        nonlocal rows, refused
        rows, refused = rows + len(msg.shares), refused + len(msg.refused)
        receive(user, msg)

    server.receive_unmask = counting
    try:
        result = execute_round(
            server=server, users=users, transport=transport, model=model, inputs=online,
            round_seed=(seed, 0), pre_drop=drop, detector=_FlagLeaves(flagged),
        )
    except UnrecoverableRoundError:
        result = None
    t = tree.share_threshold
    short = any(sum(u in online for u in members) < t for members in server.setup.share_assignment.members)
    assert (result is None) == short
    if result is None:
        return
    mask_asn = server.setup.mask_assignment
    leaf_of = mask_asn.leaf_of
    voids = {leaf for leaf, members in enumerate(mask_asn.members) if sum(u in online for u in members) < 2}
    excluded = flagged | voids
    forced = {u for u in online if leaf_of[u] in excluded}
    included = {u: x for u, x in online.items() if u not in forced}
    expect = plaintext_sum(included, m, SPEC) + model.values * np.uint64(len(forced))
    assert np.array_equal(result.total.values, expect & np.uint64(SPEC.word_mask))
    assert result.n_eff == len(online)

    def cancelled(a, b):
        return (a in drop and b in online) or (a in forced and b in included)

    pairs = build_peer_sets(mask_asn)
    assert counters.mask_cancellations == sum(cancelled(u, v) or cancelled(v, u) for u, v, *_ in pairs)
    assert counters.prg_server == len(online) + counters.mask_cancellations
    # t holders asked per secret, each answering once; every never-both
    # override is of a member of an excluded leaf
    assert refused == 0 and rows == tree.share_threshold * counters.shares_reconstructed
    share_asn = server.setup.share_assignment
    for agent in users:
        members = share_asn.members[share_asn.leaf_of[agent.index]]
        assert all(members[point - 1] in forced for point in agent.forced_releases)


@pytest.mark.parametrize("length", [1, 9])
def test_wrong_length_upload_is_blamed_on_its_sender(length):
    tree = TreeConfig(height=1, degree=2, neighbor_radius=1, share_threshold=2)
    inputs = random_inputs(12, 8, SPEC, seed=70)
    inputs[5] = quantize_vector(np.zeros(length), SPEC)
    server, users, transport, _ = build_round(12, tree, SPEC)
    with pytest.raises(ProtocolAbort, match="uploaded") as err:
        execute_round(
            server=server, users=users, transport=transport, model=zeros(8, SPEC),
            inputs=inputs, round_seed=(70, 0),
        )
    assert err.value.blamed == "user:5"


@pytest.mark.parametrize("spec, tamper", [(SPEC, "partial"), (SPEC20, "partial"), (SPEC20, "beyond_ring")])
def test_malformed_upload_is_blamed_on_its_sender(spec, tamper):
    """The server decodes the delivered upload bytes, so a partial element
    or an element >= 2^w aborts the round instead of skewing the total."""
    tree = TreeConfig(height=1, degree=2, neighbor_radius=1, share_threshold=2)
    inputs = random_inputs(12, 8, spec, seed=71)
    server, users, transport, _ = build_round(12, tree, spec)
    honest = users[5].mask_input

    def tampered(x):
        msg = honest(x)
        if tamper == "partial":
            return dataclasses.replace(msg, words=msg.words + b"\x00")
        return dataclasses.replace(msg, words=(1 << spec.word_bits).to_bytes(4, "little") + msg.words[4:])

    users[5].mask_input = tampered
    with pytest.raises(ProtocolAbort, match="malformed upload") as err:
        execute_round(
            server=server, users=users, transport=transport, model=zeros(8, spec),
            inputs=inputs, round_seed=(71, 0),
        )
    assert err.value.blamed == "user:5"


def test_receive_peer_lists_matches_per_agent(monkeypatch):
    """Over a 300-user round, the one-batch peer-list step gives every agent
    the seeds and key-agreement counts it derives alone: the batch takes the
    numpy path, each lone agent's few handles take builtin pow."""
    tree = TreeConfig(height=2, degree=3, neighbor_radius=2, share_threshold=2)
    server, users, transport, counters = build_round(300, tree, SPEC)
    checked = []

    def compare(agents, msgs):
        alone = copy.deepcopy(agents)
        for agent, msg in zip(alone, msgs):
            assert len(msg.peers) < POW_BATCH_MIN
            agent.receive_peer_list(msg)
        assert sum(len(msg.peers) for msg in msgs) >= POW_BATCH_MIN
        useragent.receive_peer_lists(agents, msgs)
        assert [a._pair_seeds for a in agents] == [a._pair_seeds for a in alone]
        assert counters.key_agreements_by_user == alone[0].counters.key_agreements_by_user
        checked.append(len(agents))

    monkeypatch.setattr(simulation, "receive_peer_lists", compare)
    inputs = random_inputs(300, 4, SPEC, seed=73)
    result = execute_round(
        server=server, users=users, transport=transport, model=zeros(4, SPEC),
        inputs=inputs, round_seed=(73, 0),
    )
    assert checked == [300]
    assert np.array_equal(result.total.values, plaintext_sum(inputs, 4, SPEC))


# -- subgroup aggregation and the carry bound ----------------------------------------------


def test_revealed_high_within_carry_bound():
    tree = TreeConfig(height=2, degree=2, neighbor_radius=1, share_threshold=2)
    for seed in range(10):
        inputs = random_inputs(17, 8, SPEC, seed=seed, scale=100.0)
        result, server, *_ = run_plain_round(17, tree, SPEC, inputs, seed=seed)
        asn = server.setup.mask_assignment
        for agg in result.aggregates:
            members = [u for u in asn.members[agg.leaf] if u in inputs]
            plain = plaintext_sum({u: inputs[u] for u in members}, 8, SPEC)
            plain_high = plain >> np.uint64(SPEC.low_bits)
            got = agg.revealed_high.values
            mod = 1 << SPEC.high_bits
            diff = (got.astype(np.int64) - plain_high.astype(np.int64)) % mod
            diff = np.where(diff >= mod // 2, diff - mod, diff)
            assert int(np.abs(diff).max()) <= agg.survivor_count


def test_all_zero_inputs_revealed_high_near_zero():
    inputs = {u: zeros(8, SPEC) for u in range(16)}
    result, *_ = run_plain_round(16, TREE22, SPEC, inputs, seed=3)
    mod = 1 << SPEC.high_bits
    for agg in result.aggregates:
        vals = agg.revealed_high.values.astype(np.int64) % mod
        vals = np.where(vals >= mod // 2, vals - mod, vals)
        assert int(np.abs(vals).max()) <= agg.survivor_count


SCALED_SPEC = SegmentSpec(word_bits=32, frac_bits=8, low_bits=12)
SCALED_LEAF = 4


def _scaled_round():
    """The aggregates of a 27-user round whose leaf ``SCALED_LEAF`` sends
    its inputs scaled 100x.  Detection-sized layout: one high-word unit is
    2^(12-8) = 16 in real units, so a ~100x amplification of benign-range
    inputs is visible."""
    spec = SCALED_SPEC
    tree = TreeConfig(height=2, degree=3, neighbor_radius=1, share_threshold=2)
    rng = np.random.default_rng(8)
    inputs = {u: quantize_vector(rng.normal(0, 1.0, 32), spec) for u in range(27)}
    result, server, *_ = run_plain_round(27, tree, spec, inputs, seed=8)
    asn = server.setup.mask_assignment
    boosted = dict(inputs)
    for u in asn.members[SCALED_LEAF]:
        boosted[u] = quantize_vector(dequantize_vector(inputs[u]) * 100, spec)
    result2, server2, *_ = run_plain_round(27, tree, spec, boosted, seed=8)
    assert server2.setup.mask_assignment.members == asn.members  # same seed
    return result2.aggregates


def test_scaled_subgroup_stands_out():
    from secaggsim.detection import subgroup_distance

    model = zeros(32, SCALED_SPEC)
    distances = {agg.leaf: subgroup_distance(agg, model) for agg in _scaled_round()}
    hot = distances[SCALED_LEAF]
    cold = max(d for leaf, d in distances.items() if leaf != SCALED_LEAF)
    assert hot > 3 * cold


def test_scaled_subgroup_flagged_on_floor_truncated_high_words():
    """With ``rounded_comparison`` off, a leaf's distance is the norm of the
    circular differences of its revealed (floor-truncated) high words from
    those of n copies of the model, over n, and the scaled leaf is still
    the one flagged."""
    from secaggsim.detection import DetectionConfig, Detector
    from secaggsim.fixedpoint import high_word_diff

    spec, model = SCALED_SPEC, zeros(32, SCALED_SPEC)
    aggregates = _scaled_round()
    detector = Detector(DetectionConfig(expansion=1.0, window=1, warmup_rounds=0, rounded_comparison=False))
    detector.history = [1.0]
    record = detector.detect(aggregates, model)
    assert record.flagged == [SCALED_LEAF]
    for agg in aggregates:
        n = agg.survivor_count
        ref_high = ((model.values * np.uint64(n)) & np.uint64(spec.word_mask)) >> np.uint64(spec.low_bits)
        expect = float(np.linalg.norm(high_word_diff(agg.revealed_high.values, ref_high, spec) / n))
        assert record.distances[agg.leaf] == expect


# -- exclusion and the global update ----------------------------------------------------


def test_exclude_empty_equals_plain_sum():
    inputs = random_inputs(20, 8, SPEC, seed=50)
    result, *_ = run_plain_round(20, TREE22, SPEC, inputs, seed=50)
    assert np.array_equal(result.total.values, plaintext_sum(inputs, 8, SPEC))


def test_excluded_noop_subgroup_is_noop():
    """Flagging a subgroup of users whose updates equal the global model
    leaves the final model unchanged."""
    from secaggsim.detection import Detector
    from secaggsim.simulation import execute_round

    model_vals = np.arange(8, dtype=np.float64) / 4.0
    tree = TREE22
    model = quantize_vector(model_vals, SPEC)
    inputs = {u: model.copy() for u in range(16)}
    server, users, transport, _ = build_round(16, tree, SPEC)
    result = execute_round(
        server=server, users=users, transport=transport, model=model,
        inputs=inputs, round_seed=(51, 0),
    )
    # manually flag leaf 2 and refinalize on a fresh run
    server2, users2, transport2, _ = build_round(16, tree, SPEC)
    result2 = execute_round(
        server=server2, users=users2, transport=transport2, model=model,
        inputs=inputs, round_seed=(51, 0),
    )
    for u, req in server2.exclusion_requests({2}).items():
        server2.receive_unmask(u, users2[u].unmask_response(req))
    total, n_eff = server2.finalize({2}, model)
    new_model = fedsgd_update(model, total, n_eff, 1.0)
    assert new_model == result.new_model == model


def test_excluded_attacker_subgroup_restores_no_attack_model():
    """With all benign users submitting exactly the global model, flagging
    the attacker's subgroup makes the round a bit-exact no-op, identical
    to the attack-free paired run."""
    from secaggsim.simulation import execute_round

    tree = TREE23
    model = quantize_vector(np.linspace(-1, 1, 12), SPEC)
    benign = {u: model.copy() for u in range(36)}

    # paired run without the attacker
    result_free, *_ = run_plain_round(36, tree, SPEC, benign, seed=52)
    model_free = fedsgd_update(model, result_free.total, result_free.n_eff, 1.0)
    assert model_free == model

    # attacked run: user 7 scales its update; flag its subgroup
    attacked = dict(benign)
    attacked[7] = quantize_vector(dequantize_vector(model) + 100.0, SPEC)
    server, users, transport, _ = build_round(36, tree, SPEC)
    execute_round(
        server=server, users=users, transport=transport, model=model,
        inputs=attacked, round_seed=(52, 0),
    )
    bad_leaf = server.setup.mask_assignment.leaf_of[7]
    for u, req in server.exclusion_requests({bad_leaf}).items():
        server.receive_unmask(u, users[u].unmask_response(req))
    total, n_eff = server.finalize({bad_leaf}, model)
    assert fedsgd_update(model, total, n_eff, 1.0) == model_free


def test_fedsgd_update_examples():
    spec = SPEC
    x0 = zeros(1, spec)
    total = quantize_vector([6.0], spec)  # updates {2, 4}
    out = fedsgd_update(x0, total, 2, 1.0)
    assert dequantize_vector(out)[0] == pytest.approx(3.0)

    # all updates equal to the model: fixed point
    model = quantize_vector([1.25], spec)
    total2 = ParamVector((model.values * np.uint64(4)) & np.uint64(spec.word_mask), spec)
    assert fedsgd_update(model, total2, 4, 1.0) == model

    # eta = 0 leaves the model unchanged
    assert fedsgd_update(model, total2, 4, 0.0) == model


# -- privacy plumbing ------------------------------------------------------------------


def test_server_never_stores_plaintext_vector():
    """Every model-domain vector in server state is a masked upload or a
    multi-user partial sum, never a bare individual input."""
    inputs = random_inputs(20, 8, SPEC, seed=60)
    result, server, users, _ = run_plain_round(20, TREE22, SPEC, inputs, seed=60)
    plain = {u: x.values.tobytes() for u, x in inputs.items()}
    for u, y in server._uploads.items():
        assert y.tobytes() != plain[u]
    for leaf, vec in server._leaf_sums.items():
        for blob in plain.values():
            assert vec.tobytes() != blob


def test_users_never_learn_grouping():
    """User-side state carries no subgroup indices or identities: only its
    own evaluation point and share-leaf size, randomized keys, and signs.  A
    peer handle carries no point, so a user cannot tell which masking peers
    share its share leaf."""
    inputs = random_inputs(16, 4, SPEC, seed=61)
    _, server, users, _ = run_plain_round(16, TREE22, SPEC, inputs, seed=61)
    banned = ("assignment", "leaf", "subgroup", "identity")
    for agent in users:
        for attr in vars(agent):
            assert not any(word in attr.lower() for word in banned), attr
        for handle in agent._peer_handles:
            assert set(vars(handle)) == {"randomized_pub", "sign", "kind"}


# -- setup verification against a cheating server -------------------------------------


def _run_16(server, users, transport, seed):
    execute_round(
        server=server,
        users=users,
        transport=transport,
        model=zeros(4, SPEC),
        inputs=random_inputs(16, 4, SPEC, seed=seed),
        round_seed=(seed, 0),
    )


def _swap_opening(server):
    # a fresh randomness for user 5 before setup: grouping, commitment and
    # reveal all agree with it, only the tree-commit digest does not
    finish = server.finish_setup

    def cheat():
        server._user_rands[5] = bytes(32)
        finish()

    server.finish_setup = cheat


def _digest_over_changed_list(server):
    commit_tree = server.commit_tree

    def cheat():
        msg = commit_tree()
        commits = list(server._rand_commits)
        commits[5] = bytes(32)
        return TreeCommitMsg(msg.n_users, commits_digest(commits))

    server.commit_tree = cheat


def _record_altered(user):
    # the server grinds the grouping with another key for one user
    def install(server):
        finish = server.finish_setup

        def cheat():
            server._share_pubs[user] = bytes(len(server._share_pubs[user]))
            finish()

        server.finish_setup = cheat

    return install


def _wrong_population(server):
    commit_tree = server.commit_tree

    def cheat():
        return dataclasses.replace(commit_tree(), n_users=server.n_users + 1)

    server.commit_tree = cheat


def _population_too_small(server):
    # commitment and reveal agree on one user, the verifier itself, which
    # cannot fill the tree; the real leaves of 4 are not what one user
    # makes, so every user rejects its PEER_LIST before the replay could
    commit_tree, reveal = server.commit_tree, server.reveal

    def cheat_commit():
        msg = commit_tree()
        return TreeCommitMsg(1, commits_digest(server._rand_commits[:1]))

    def cheat_reveal():
        msg = reveal()
        return dataclasses.replace(msg, user_records=msg.user_records[:1])

    server.commit_tree, server.reveal = cheat_commit, cheat_reveal


def _reveal_not_the_setup(server):
    reveal = server.reveal

    def cheat():
        msg = reveal()
        records = list(msg.user_records)
        records[7] = (records[7][0], bytes(len(records[7][1])), *records[7][2:])
        return dataclasses.replace(msg, user_records=tuple(records))

    server.reveal = cheat


def _other_server_rand(server):
    # a server randomness other than the committed one, of the right width
    reveal = server.reveal

    def cheat():
        return dataclasses.replace(reveal(), server_rand=bytes(32))

    server.reveal = cheat


def _other_tree_shape(server):
    # the server groups the 16 users into a 1x2 tree; they were set up for
    # TREE22, so its leaves of 8 are not what 16 users make in 4 leaves
    server.tree = TreeConfig(height=1, degree=2, neighbor_radius=1, share_threshold=2)


def _short_rand_in_reveal(server):
    # the last record's randomness cut to 8 bytes: no width says so, and the
    # payload is not whole records of the receiver's layout
    reveal = server.reveal

    def cheat():
        msg = reveal()
        *records, (share_pub, mask_pub, rand) = msg.user_records
        return dataclasses.replace(msg, user_records=(*records, (share_pub, mask_pub, rand[:8])))

    server.reveal = cheat


@pytest.mark.parametrize(
    "cheat, match",
    [
        pytest.param(_swap_opening, "committed digest", id="swap_opening"),
        pytest.param(_digest_over_changed_list, "committed digest", id="digest_over_changed_list"),
        # user 0 runs the full check; every other online user checks its own record
        pytest.param(_record_altered(0), "user 0 own record", id="verifier_record_altered"),
        pytest.param(_record_altered(5), "user 5 own record", id="other_record_altered"),
        pytest.param(_wrong_population, "lists 16 users", id="wrong_population"),
        pytest.param(_population_too_small, "share leaf of 4 for 1 users in 4 leaves", id="population_too_small"),
        pytest.param(_reveal_not_the_setup, "mask-tree assignment does not match", id="reveal_not_the_setup"),
        pytest.param(_short_rand_in_reveal, "server sent a malformed RevealMsg", id="short_rand_in_reveal"),
        pytest.param(_other_server_rand, "server randomness opening failed", id="other_server_rand"),
        pytest.param(_other_tree_shape, "share leaf of 8 for 16 users in 4 leaves", id="other_tree_shape"),
    ],
)
def test_cheating_server_caught_by_verifier(cheat, match):
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    cheat(server)
    with pytest.raises(ProtocolAbort, match=match) as exc:
        _run_16(server, users, transport, 70)
    assert exc.value.blamed == "server"


def test_cheating_server_population_below_the_tree_caught_by_the_replay():
    """Eight users fill a 2x2 tree with leaves of 2, which 5 users would
    make too, so a commitment and reveal that agree on the first 5 users
    pass every PEER_LIST; the verifier's replay then finds that 5 users
    cannot fill 4 leaves of at least 2."""
    server, users, transport, _ = build_round(8, TREE22, SPEC)
    reveal = server.reveal
    server.commit_tree = lambda: TreeCommitMsg(5, commits_digest(server._rand_commits[:5]))

    def cheat_reveal():
        msg = reveal()
        return dataclasses.replace(msg, user_records=msg.user_records[:5])

    server.reveal = cheat_reveal
    with pytest.raises(ProtocolAbort, match="does not fit the tree") as exc:
        execute_round(
            server=server,
            users=users,
            transport=transport,
            model=zeros(4, SPEC),
            inputs=random_inputs(8, 4, SPEC, seed=71),
            round_seed=(71, 0),
        )
    assert exc.value.blamed == "server"


def test_cheating_server_other_leaf_count_caught_by_the_replay():
    """17 users make leaves of 2 or 3 in the 8 leaves of a 3x2 tree, and so
    do they in the 7 leaves of a 1x7 tree: a server grouping under the
    latter passes every PEER_LIST, and the verifier's replay under its
    own tree finds another share-tree assignment."""
    tree = TreeConfig(height=3, degree=2, neighbor_radius=1, share_threshold=2)
    server, users, transport, _ = build_round(17, tree, SPEC)
    server.tree = TreeConfig(height=1, degree=7, neighbor_radius=1, share_threshold=2)
    with pytest.raises(ProtocolAbort, match="share-tree assignment does not match") as exc:
        execute_round(
            server=server,
            users=users,
            transport=transport,
            model=zeros(4, SPEC),
            inputs=random_inputs(17, 4, SPEC, seed=72),
            round_seed=(72, 0),
        )
    assert exc.value.blamed == "server"


def test_consistent_opening_swap_passes_replay_alone():
    """The swap above is invisible to the grouping replay; only the
    digest from before the openings exposes it."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    _swap_opening(server)
    with pytest.raises(ProtocolAbort):
        _run_16(server, users, transport, 70)
    verify_setup(server.setup, TREE22, server.server_rand, server.reveal().user_records)


def test_mismatched_opening_caught_at_receive_open():
    """A user that opens other randomness than it committed is caught by
    the server as the opening arrives, blamed on that user; without this
    check the round would run on and the reveal's digest would blame the
    server."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    users[3].open_rand = lambda tree_commit: RandOpenMsg(bytes(32))
    with pytest.raises(ProtocolAbort, match="user 3 opened a different randomness") as exc:
        _run_16(server, users, transport, 72)
    assert exc.value.blamed == "user:3"


def _key(group, value):
    return lambda key: group.encode(value)


_OFF_LAYOUT = "user:3 sent a malformed AdvertMsg"
_OUT_OF_RANGE = "user 3 advertised a (share|mask) key"


@pytest.mark.parametrize(
    "field, resize, group, match",
    [
        pytest.param(0, lambda key: key + b"\x00", FAST_GROUP, _OFF_LAYOUT, id="share_key_9_bytes"),
        pytest.param(1, lambda key: key[1:], FAST_GROUP, _OFF_LAYOUT, id="mask_key_7_bytes"),
        pytest.param(0, lambda key: b"", FAST_GROUP, _OFF_LAYOUT, id="share_key_empty"),
        pytest.param(1, _key(FAST_GROUP, FAST_GROUP.p), FAST_GROUP, _OUT_OF_RANGE, id="mask_key_equal_to_p"),
        pytest.param(1, _key(FAST_GROUP, 0), FAST_GROUP, _OUT_OF_RANGE, id="fast64_mask_key_0"),
        pytest.param(0, _key(FAST_GROUP, 1), FAST_GROUP, _OUT_OF_RANGE, id="fast64_share_key_1"),
        pytest.param(1, _key(FAST_GROUP, FAST_GROUP.p - 1), FAST_GROUP, _OUT_OF_RANGE, id="fast64_mask_key_p_minus_1"),
        pytest.param(0, _key(TOY_GROUP, 0), TOY_GROUP, _OUT_OF_RANGE, id="toy_share_key_0"),
        pytest.param(1, _key(TOY_GROUP, 1), TOY_GROUP, _OUT_OF_RANGE, id="toy_mask_key_1"),
        pytest.param(0, _key(TOY_GROUP, TOY_GROUP.p - 1), TOY_GROUP, _OUT_OF_RANGE, id="toy_share_key_p_minus_1"),
    ],
)
def test_malformed_advert_key_caught_at_receive_advert(field, resize, group, match):
    """An ADVERT key that is not one ``element_bytes``-long k with
    1 < k < p - 1 aborts the round as the advert arrives, blamed on its
    sender, before any reveal could fail to encode it.  The key (0 for the
    share key, 1 for the mask key) is rewritten in the bytes the server
    gets: one of another length leaves the record off its fixed layout,
    which decoding rejects; 0 would make every pair seed of its owner
    public, 1 and p - 1 (of order at most 2) almost so."""
    server, users, transport, _ = build_round(16, TREE22, SPEC, group=group)
    deliver, w = transport.deliver, group.element_bytes

    def rekeyed(sender, receiver, encoded):
        received = deliver(sender, receiver, encoded)
        if sender != "user:3" or received[0] != TAG_ADVERT:
            return received
        _, payload = decode_record(received)
        keys = [payload[:w], payload[w : 2 * w]]
        keys[field] = resize(keys[field])
        return encode_record(TAG_ADVERT, b"".join(keys) + payload[2 * w :])

    transport.deliver = rekeyed
    with pytest.raises(ProtocolAbort, match=match) as exc:
        _run_16(server, users, transport, 73)
    assert exc.value.blamed == "user:3"
    assert server._share_pubs[3] is None  # nothing of the advert was filed


@pytest.mark.parametrize(
    "resize",
    [
        pytest.param(lambda rand: rand[:16], id="short"),
        pytest.param(lambda rand: rand[:31], id="one_byte_short"),
        pytest.param(lambda rand: rand + b"\x00", id="one_byte_long"),
    ],
)
def test_opening_not_32_bytes_caught_at_receive_open(resize):
    """A RAND_OPEN payload is the 32-byte randomness alone, so one of
    another length, even one that starts with the committed randomness,
    fails to decode before ``receive_open`` and is blamed on its sender."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    honest = users[3].open_rand
    users[3].open_rand = lambda tree_commit: RandOpenMsg(resize(honest(tree_commit).user_rand))
    with pytest.raises(ProtocolAbort, match="user:3 sent a malformed RandOpenMsg") as exc:
        _run_16(server, users, transport, 72)
    assert exc.value.blamed == "user:3"


def _unasked_rows(req, resp):
    """Released slots past the request, one for every other owner point in
    the holder's share leaf of 4, which it was not asked about."""
    asked = {owner for owner, _ in req.targets}
    extra = tuple(resp.slots[0] for point in range(1, 5) if point not in asked)
    return UnmaskResponseMsg(resp.slots + extra)


def _repeated_row(req, resp):
    return UnmaskResponseMsg(resp.slots + resp.slots[:1])


def _seed_past_field(req, resp):
    """The first slot, a released self seed, holds 2^128 + 51, one past its field."""
    from secaggsim.crypto import SEED_SHARE_PRIME

    (_, stype), _ = req.targets
    assert stype == SECRET_SELF_SEED and resp.slots[0][0]
    return UnmaskResponseMsg(((True, SEED_SHARE_PRIME.to_bytes(SEED_BYTES, "big")), *resp.slots[1:]))


def _narrow_key_table(req, resp):
    """The first slot, a self seed, holding an 8-byte key share, which the
    server reads at the seed's 17 bytes into no whole slots."""
    (_, stype), _ = req.targets
    assert stype == SECRET_SELF_SEED
    return UnmaskResponseMsg(((True, bytes(KEY_BYTES)), *resp.slots[1:]))


def _filled_refusal(req, resp):
    """The first slot refused, with its share left in place of the zero fill."""
    (_, share), *rest = resp.slots
    return UnmaskResponseMsg(((False, share), *rest))


_MALFORMED = "user:3 sent a malformed UnmaskResponseMsg"


@pytest.mark.parametrize(
    "tamper, match",
    [
        pytest.param(_unasked_rows, _MALFORMED, id="unasked_owners"),
        pytest.param(_repeated_row, _MALFORMED, id="repeated_row"),
        pytest.param(_seed_past_field, "a share outside its field", id="seed_past_field"),
        pytest.param(_narrow_key_table, _MALFORMED, id="wrong_key_width"),
        pytest.param(lambda req, resp: UnmaskResponseMsg(resp.slots[:-1]), _MALFORMED, id="slot_short"),
        pytest.param(lambda req, resp: UnmaskResponseMsg(()), _MALFORMED, id="empty_reply"),
        pytest.param(
            lambda req, resp: UnmaskResponseMsg(((2, resp.slots[0][1]), *resp.slots[1:])), _MALFORMED, id="status_2"
        ),
        pytest.param(_filled_refusal, _MALFORMED, id="refusal_not_zero_filled"),
    ],
)
def test_unrequested_release_rows_rejected_at_receive_unmask(tamper, match):
    """The server reads a response as one slot per target of the request it
    sent, at its group's widths: a share for an owner it did not ask about,
    or one twice, a slot too few (an empty reply included), a status other
    than 0 or 1, or a refusal that is not zero-filled makes the response
    malformed, and a share outside its field is refused when filed.  Each
    aborts the round blamed on the holder, with none of its shares filed,
    where filing them would give a wrong total.  Out of scope: a wrong
    share inside the field, which cannot be detected without verifiable
    shares."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    honest = users[3].unmask_response
    users[3].unmask_response = lambda req: tamper(req, honest(req))
    with pytest.raises(ProtocolAbort, match=match) as exc:
        _run_16(server, users, transport, 71)
    assert exc.value.blamed == "user:3"
    assert server._sent[3] and not any(server._point[3] in server._collected[target] for target in server._sent[3])


def test_key_row_outside_its_field_rejected_at_receive_unmask():
    """A released key share of 2^63 + 29, one past its field, is
    blamed on the holder that released it, where filing it would read it
    mod p as another share.  User 0 drops, so its mask key is asked for."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    released = []

    def at_prime(agent, honest):
        def respond(req):
            resp = honest(req)
            slots = list(resp.slots)
            pairs = enumerate(zip(req.targets, slots))
            keys = [i for i, ((_, stype), (ok, _)) in pairs if ok and stype == SECRET_MASK_KEY]
            if not keys:
                return resp
            released.append(f"user:{agent.index}")
            slots[keys[0]] = (True, SHARE_FIELDS[SECRET_MASK_KEY][0].to_bytes(KEY_BYTES, "big"))
            return UnmaskResponseMsg(tuple(slots))

        return respond

    for agent in users:
        agent.unmask_response = at_prime(agent, agent.unmask_response)
    inputs = random_inputs(16, 4, SPEC, seed=71)
    del inputs[0]
    with pytest.raises(ProtocolAbort, match="outside its field") as exc:
        execute_round(
            server=server,
            users=users,
            transport=transport,
            model=zeros(4, SPEC),
            inputs=inputs,
            round_seed=(71, 0),
            pre_drop={0},
        )
    assert exc.value.blamed == released[0]


def test_self_seed_reconstructed_outside_16_bytes_is_unrecoverable():
    """Every holder releases 2^128 + 1, inside the seed field, for each
    self-seed target, so each seed interpolates to 2^128 + 1, which no
    16-byte seed is.  The round fails typed, naming the first owner: the
    server cannot yet tell which holder lied (ROADMAP item 10)."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    wrong = ((1 << 128) + 1).to_bytes(SEED_BYTES, "big")

    def lying(honest):
        def respond(req):
            slots = zip(req.targets, honest(req).slots)
            return UnmaskResponseMsg(
                tuple((ok, wrong if ok and stype == SECRET_SELF_SEED else share) for (_, stype), (ok, share) in slots)
            )

        return respond

    for agent in users:
        agent.unmask_response = lying(agent.unmask_response)
    with pytest.raises(UnrecoverableRoundError, match="user 0 self seed reconstructs outside 16 bytes"):
        _run_16(server, users, transport, 71)


# -- asking t holders, and again on a shortfall -------------------------------------------


def _all_refused(req):
    """A reply of the request's length that refuses every target: a
    zero-filled slot of the target's width each."""
    return UnmaskResponseMsg(tuple((False, bytes(SHARE_FIELDS[stype][1])) for _, stype in req.targets))


def _silent(honest, req):
    return _all_refused(req)


def _refusing(honest, req):
    """Release the other secret of every target first, then refuse the
    request under the never-both rule."""
    other = {SECRET_MASK_KEY: SECRET_SELF_SEED, SECRET_SELF_SEED: SECRET_MASK_KEY}
    honest(UnmaskRequestMsg(tuple((owner, other[stype]) for owner, stype in req.targets)))
    resp = honest(req)
    assert resp.refused == tuple(range(len(req.targets))) and not resp.shares
    return resp


@pytest.mark.parametrize("answer", [_silent, _refusing], ids=["empty_table", "never_both_refusal"])
def test_shortfall_is_asked_of_the_next_online_holder(answer):
    """A holder that releases nothing, refusing every slot, or refuses
    under the never-both rule, leaves its secrets one row short; the next
    call asks the next online holder in each owner's cyclic order for
    exactly those, and the total is still exact."""
    server, users, transport, counters = build_round(16, TREE22, SPEC)
    honest = users[3].unmask_response
    users[3].unmask_response = lambda req: answer(honest, req)
    calls = []
    requests = server.unmask_requests

    def recorded():
        calls.append(requests())
        return calls[-1]

    server.unmask_requests = recorded
    inputs = random_inputs(16, 4, SPEC, seed=77)
    result = execute_round(
        server=server, users=users, transport=transport, model=zeros(4, SPEC),
        inputs=inputs, round_seed=(77, 0),
    )
    assert np.array_equal(result.total.values, plaintext_sum(inputs, 4, SPEC))
    first, again, done = calls
    assert done == {} and 3 not in again
    assert sorted(target for req in again.values() for target in req.targets) == sorted(first[3].targets)
    share_asn, t = server.setup.share_assignment, TREE22.share_threshold
    for holder, req in again.items():
        members = share_asn.members[share_asn.leaf_of[holder]]
        for at, _ in req.targets:
            assert (members[at:] + members[:at]).index(holder) == t
    assert counters.shares_reconstructed == 16


def test_exclusion_shortfall_is_asked_again():
    """A holder silent on the forced mask-key requests of an exclusion is
    replaced as in the unmask step, and the total keeps the oracle."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    honest = users[3].unmask_response
    silenced = []

    def silent_when_forced(req):
        if req.forced:
            silenced.append(req)
            return _all_refused(req)
        return honest(req)

    users[3].unmask_response = silent_when_forced
    model = quantize_vector(np.linspace(-1, 1, 4), SPEC)
    inputs = random_inputs(16, 4, SPEC, seed=79)
    flagged = {0, 1, 2}
    result = execute_round(
        server=server, users=users, transport=transport, model=model,
        inputs=inputs, round_seed=(79, 0), detector=_FlagLeaves(flagged),
    )
    assert silenced
    leaf_of = server.setup.mask_assignment.leaf_of
    included = {u: x for u, x in inputs.items() if leaf_of[u] not in flagged}
    expect = plaintext_sum(included, 4, SPEC) + model.values * np.uint64(16 - len(included))
    assert np.array_equal(result.total.values, expect & np.uint64(SPEC.word_mask))


def test_leaf_with_t_minus_one_answering_holders_is_unrecoverable():
    """Every member of a share leaf is asked in turn, and with only t - 1
    of them answering no holder is left: the round fails, typed."""
    tree = TreeConfig(height=1, degree=2, neighbor_radius=1, share_threshold=3)
    server, users, transport, _ = build_round(16, tree, SPEC)
    finish = server.finish_setup

    def silence_a_leaf():
        finish()
        for u in server.setup.share_assignment.members[0][tree.share_threshold - 1 :]:
            users[u].unmask_response = _all_refused

    server.finish_setup = silence_a_leaf
    with pytest.raises(UnrecoverableRoundError, match="only 2 shares"):
        _run_16(server, users, transport, 78)


# -- share relay and typed errors at every receiver -------------------------------------


def _resized(bundle, entries):
    """The bundle with its first entry dropped or repeated."""
    w = ENTRY_BYTES
    bodies = bundle.bodies[w:] if entries < 0 else bundle.bodies[:w] + bundle.bodies
    return dataclasses.replace(bundle, bodies=bodies)


@pytest.mark.parametrize(
    "tamper, match",
    [
        pytest.param(lambda b: _resized(b, -1), "2 share entries for its 3", id="short_bundle"),
        pytest.param(lambda b: _resized(b, 1), "4 share entries for its 3", id="long_bundle"),
    ],
)
def test_relay_checks_the_sender_bundle(tamper, match):
    """The relay files nothing that does not hold one entry per share
    recipient; each such bundle is blamed on its sender."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    honest = users[3].distribute_shares
    users[3].distribute_shares = lambda: tamper(honest())
    with pytest.raises(ProtocolAbort, match=match) as exc:
        _run_16(server, users, transport, 73)
    assert exc.value.blamed == "user:3"
    assert 3 not in server._share_inbox.get(server.setup.share_assignment.leaf_of[3], {})


def test_relay_rejects_a_partial_entry():
    """A bundle carries no width, so its decoder reads it as whole 25-byte
    entries: the bytes of one a byte past whole entries are blamed on their
    sender as malformed before the relay files anything."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    _edit_records(transport, "user:3", TAG_SHARE_MSG, _byte_in_payload)
    with pytest.raises(ProtocolAbort, match="user:3 sent a malformed ShareMsg: 76 share bytes are not whole 25") as exc:
        _run_16(server, users, transport, 73)
    assert exc.value.blamed == "user:3"
    assert 3 not in server._share_inbox.get(server.setup.share_assignment.leaf_of[3], {})


def test_relay_rejects_a_second_bundle():
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    route = server.route_share

    def twice(sender, data):
        out = route(sender, data)
        return route(sender, data) if sender == 3 else out

    server.route_share = twice
    with pytest.raises(ProtocolAbort, match="second share bundle") as exc:
        _run_16(server, users, transport, 74)
    assert exc.value.blamed == "user:3"


def _edit_records(transport, sender, tag, edit):
    """Make ``transport`` hand over every ``tag`` record from ``sender`` as
    ``edit`` makes it."""
    deliver = transport.deliver

    def editing(s, receiver, encoded):
        received = deliver(s, receiver, encoded)
        return edit(received) if s == sender and received[0] == tag else received

    transport.deliver = editing


def _byte_in_payload(record):
    _, payload = decode_record(record)
    return encode_record(record[0], payload + b"\x00")


# every (sender, tag) a round carries
ROUND_RECORDS = [
    ("server", TAG_SERVER_COMMIT),
    ("user:3", TAG_ADVERT),
    ("server", TAG_TREE_COMMIT),
    ("user:3", TAG_RAND_OPEN),
    ("server", TAG_PEER_LIST),
    ("user:3", TAG_SHARE_MSG),
    ("server", TAG_SHARE_MSG),
    ("user:3", TAG_MASKED_UPLOAD),
    ("server", TAG_REVEAL),
    ("server", TAG_UNMASK_REQUEST),
    ("user:3", TAG_UNMASK_RESPONSE),
    ("server", TAG_GLOBAL_MODEL),
]


@pytest.mark.parametrize("sender, tag", ROUND_RECORDS)
def test_malformed_bytes_blamed_on_their_sender(sender, tag):
    """Every (sender, tag) a round carries: each record is decoded from the
    bytes its receiver got, so one trailing byte in its payload aborts the
    round blamed on the sender.  A vector message fails on its words, as a
    partial element; the new model is checked so before the next round
    uses it."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    _edit_records(transport, sender, tag, _byte_in_payload)
    with pytest.raises(ProtocolAbort, match="malformed") as exc:
        _run_16(server, users, transport, 75)
    assert exc.value.blamed == sender


@pytest.mark.parametrize("sender, tag", ROUND_RECORDS)
def test_byte_after_a_record_blamed_on_its_sender(sender, tag):
    """One byte after a record, past the payload its header gives, is not
    ignored: the record is malformed, and the round aborts blamed on its
    sender, for every (sender, tag) a round carries."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    _edit_records(transport, sender, tag, lambda record: record + b"\x00")
    with pytest.raises(ProtocolAbort, match="its header says") as exc:
        _run_16(server, users, transport, 75)
    assert exc.value.blamed == sender


# -- peer lists and evaluation points -----------------------------------------------------


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(dict(own_point=0), id="own_point_zero"),
        pytest.param(dict(own_point=5), id="own_point_past_leaf"),
        pytest.param(dict(leaf_size=0), id="empty_leaf"),
    ],
)
def test_own_point_outside_the_share_leaf_blamed_on_the_server(edit):
    """A PEER_LIST whose own point is not 1 to its share-leaf size (4
    here) aborts the round blamed on the server before any share is made."""
    server, users, transport, counters = build_round(16, TREE22, SPEC)
    peer_list_for = server.peer_list_for
    server.peer_list_for = lambda user: dataclasses.replace(peer_list_for(user), **(edit if user == 3 else {}))
    with pytest.raises(ProtocolAbort, match="user 3 got own point .* outside a share leaf of") as exc:
        _run_16(server, users, transport, 77)
    assert exc.value.blamed == "server"
    assert counters.shares_created == 0


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(dict(leaf_size=5), id="one_more"),
        pytest.param(dict(leaf_size=20_000), id="twenty_thousand"),
        pytest.param(dict(own_point=1, leaf_size=3), id="one_fewer"),
    ],
)
def test_share_leaf_size_outside_the_committed_population_blamed_on_the_server(edit):
    """16 users in 4 leaves make leaves of 4 only, as each user computes
    from the N of its TREE_COMMIT and its own tree: a PEER_LIST claiming
    any other leaf size aborts the round blamed on the server before any
    share is built, so a 19-byte message cannot make a user build shares
    for 20,000 members."""
    server, users, transport, counters = build_round(16, TREE22, SPEC)
    peer_list_for = server.peer_list_for
    server.peer_list_for = lambda user: dataclasses.replace(peer_list_for(user), **(edit if user == 3 else {}))
    with pytest.raises(ProtocolAbort, match="user 3 got a share leaf of .* for 16 users in 4 leaves") as exc:
        _run_16(server, users, transport, 78)
    assert exc.value.blamed == "server"
    assert counters.shares_created == 0


def test_peer_list_outside_a_committed_tree_blamed_on_the_server():
    """A PEER_LIST before the user's TREE_COMMIT gives it no N to check the
    share-leaf size against, and is blamed on the server."""
    agent = UserAgent(0, group=FAST_GROUP, spec=SPEC, inter_mask_bits=10, tree=TREE22, counters=OpCounters())
    agent.begin_round(Random(0), bytes(32))
    with pytest.raises(ProtocolAbort, match="user 0 got a peer list before the tree commitment") as exc:
        agent.receive_peer_list(PeerListMsg(1, 2, ()))
    assert exc.value.blamed == "server"
    assert agent.counters.shares_created == 0


@pytest.mark.parametrize("key", [0, 1, FAST_GROUP.p - 1], ids=["zero", "one", "p_minus_1"])
def test_blinded_key_outside_the_group_blamed_on_the_server(key):
    """A PEER_LIST handle whose blinded key k is not 1 < k < p - 1 aborts the
    round blamed on the server before any seed is derived; honest blinding
    never yields one, and the pair's masks would not cancel."""
    server, users, transport, counters = build_round(16, TREE22, SPEC)
    peer_list_for = server.peer_list_for

    def cheat(user):
        msg = peer_list_for(user)
        if user != 3:
            return msg
        first = dataclasses.replace(msg.peers[0], randomized_pub=FAST_GROUP.encode(key))
        return dataclasses.replace(msg, peers=(first, *msg.peers[1:]))

    server.peer_list_for = cheat
    with pytest.raises(ProtocolAbort, match="user 3 got a blinded key outside") as exc:
        _run_16(server, users, transport, 77)
    assert exc.value.blamed == "server"
    assert sum(counters.key_agreements_by_user.values()) == 0


@pytest.mark.parametrize("point", [0, 5], ids=["zero", "past_leaf"])
def test_request_target_outside_the_share_leaf_blamed_on_the_server(point):
    """An unmask request for an owner point outside the holder's share leaf
    (of 4 here) aborts the round blamed on the server; it names no share
    the holder has."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    requests = server.unmask_requests
    server.unmask_requests = lambda: {
        u: dataclasses.replace(req, targets=((point, SECRET_SELF_SEED),)) for u, req in requests().items()
    }
    with pytest.raises(ProtocolAbort, match=f"asked for owner point {point} outside its share leaf") as exc:
        _run_16(server, users, transport, 79)
    assert exc.value.blamed == "server"


def test_unmask_request_before_the_share_bundle_blamed_on_the_server():
    """A holder the relay never sent its bundle holds only its own entry,
    so an unmask request to it aborts the round blamed on the server."""
    server, users, transport, _ = build_round(16, TREE22, SPEC)
    route = server.route_share
    server.route_share = lambda sender, msg: [(r, b) for r, b in route(sender, msg) if r != 3]
    with pytest.raises(ProtocolAbort, match="user 3 got an unmask request before its share bundle") as exc:
        _run_16(server, users, transport, 79)
    assert exc.value.blamed == "server"
