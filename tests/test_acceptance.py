"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity.  Tolerances are fixed here and nowhere else.

Criterion 8 is implemented exactly as stated and is expected to fail: the
training loss equals the mean squared RMS-normalized drift, whose value is
pinned near 1/S by the normalization itself, so no honest configuration can
halve it.  See the decisions ledger for the full analysis.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from driftkit.actor import DEFAULT_LOG_STD_INIT, GaussianActor, prefix_entropy, prefix_log_prob
from driftkit.autodiff import Tensor, backward
from driftkit.checkpoint import load_checkpoint, restore_generator, save_checkpoint
from driftkit.cli import main
from driftkit.drift import (DriftConfig, MULTISCALE_TEMPERATURES,
                            balanced_coefficients, build_reference_pool,
                            compute_drift_field, fixed_point_loss)
from driftkit.envs import PointMassEnv, mode_coverage, synth_multimodal
from driftkit.generator import ChunkSpec, Generator, executed_prefix
from driftkit.ppo import (Critic, PPOConfig, clipped_surrogate, collect_rollouts,
                          compute_gae, finetune, ppo_minibatch, ppo_update, evaluate_policy,
                          ppo_ratio, anchor_loss)
from driftkit.training import AdamW, TrainConfig, train

from .oracles import drift_field_loops, finite_diff

TOY_SPEC = ChunkSpec(horizon=16, action_dim=2, history_len=2, exec_len=8)

# shared Stage-1 recipe for the behavioral criteria
COVERAGE_TRAIN = dict(learning_rate=3e-3, warmup_steps=50)
PRETRAIN_STEPS = 60
PRETRAIN_SEED = 44
STAGE1_TEMPERATURES = (0.7,)


def toy_dataset(seed=0, conditions=96, samples=4):
    return synth_multimodal(modes=2, conditions=conditions,
                            samples_per_condition=samples, seed=seed,
                            spec=TOY_SPEC)


@pytest.fixture(scope="module")
def train_data():
    return toy_dataset(seed=0)


@pytest.fixture(scope="module")
def eval_data():
    return toy_dataset(seed=1, conditions=24, samples=1)


@pytest.fixture(scope="module")
def pretrained_doc(train_data, tmp_path_factory):
    gen = Generator(TOY_SPEC, obs_dim=6, latent_dim=4, hidden_dim=64, seed=0)
    cfg = TrainConfig(steps=PRETRAIN_STEPS, seed=PRETRAIN_SEED, **COVERAGE_TRAIN)
    train(train_data, gen, DriftConfig(temperatures=STAGE1_TEMPERATURES), cfg)
    path = tmp_path_factory.mktemp("pretrained") / "checkpoint.json"
    save_checkpoint(path, gen)
    return load_checkpoint(path)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        b, g, s = (int(rng.integers(1, 7)) for _ in range(3))
        c_p = int(rng.integers(1, max(2, 7 - g)))
        hyp = rng.uniform(-2, 2, size=(b, g, s))
        pos = rng.uniform(-2, 2, size=(b, c_p, s))
        pool = build_reference_pool(hyp, pos)
        config = DriftConfig(hypothesis_count=g, temperatures=MULTISCALE_TEMPERATURES)
        field = compute_drift_field(hyp, pool, config)
        loss, _ = fixed_point_loss(hyp, field.target, field.scale)
        oracle = drift_field_loops(hyp, pool, config.temperatures, config.scale_floor,
                                   config.force_floor)
        worst = max(worst, np.max(np.abs(field.distances - oracle["distances"])))
        worst = max(worst, abs(field.scale - oracle["scale"]))
        for t in config.temperatures:
            for mine, ref in ((field.affinities, "affinities"),
                              (field.coefficients, "coefficients"),
                              (field.forces, "forces")):
                worst = max(worst, np.max(np.abs(mine[t] - oracle[ref][t])))
        worst = max(worst, np.max(np.abs(field.aggregate - oracle["aggregate"])))
        worst = max(worst, np.max(np.abs(field.target - oracle["target"])))
        worst = max(worst, abs(loss - oracle["loss"]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"max deviation {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS oracle equivalence: max deviation {worst:.2e} "
          f"over 100 instances in {elapsed:.1f}s")


def test_criterion_2_mass_balance_identity():
    rng = np.random.default_rng(2)
    n, g, c_p = 10_000, 3, 2
    aff = rng.uniform(0.0, 1.0, size=(n, g, g + c_p))
    neg, pos = np.arange(g), np.arange(g, g + c_p)
    alpha = balanced_coefficients(aff)
    residual = np.abs(alpha[:, :, neg].sum(axis=2) + alpha[:, :, pos].sum(axis=2))
    worst = float(residual.max())
    assert worst < 1e-9, f"residual {worst:.3e}"
    print(f"\nACCEPTANCE 2 PASS mass balance: worst residual {worst:.2e} "
          f"over {n} random coefficient tensors")


def test_criterion_3_gradient_suite():
    start = time.perf_counter()
    spec = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)
    worst = 0.0

    # (a) drift regression loss through the generator, target held fixed
    gen = Generator(spec, obs_dim=6, latent_dim=4, hidden_dim=8, seed=3)
    rng = np.random.default_rng(30)
    obs = rng.normal(size=(3, 1, 6))
    experts = rng.uniform(-1, 1, size=(3, 1, spec.chunk_dim))
    latents = rng.standard_normal((3, 2, 4))
    config = DriftConfig(hypothesis_count=2)

    def hypotheses():
        obs_rep = np.repeat(obs.reshape(3, -1), 2, axis=0)
        chunk, acts = gen.evaluate(obs_rep, latents.reshape(6, 4))
        return chunk.reshape(3, 2, spec.chunk_dim), acts

    values, acts = hypotheses()
    pool = build_reference_pool(values, experts)
    field = compute_drift_field(values, pool, config)

    _, d_values = fixed_point_loss(values, field.target, field.scale)
    grads = gen.backward(acts, d_values.reshape(6, spec.chunk_dim))
    for name, p in gen.params.items():
        analytic = grads[name]
        original = p.data.copy()

        def fd_fn(arr):
            p.data = arr
            value = fixed_point_loss(hypotheses()[0], field.target, field.scale)[0]
            p.data = original
            return value

        numeric = finite_diff(fd_fn, original.copy(), h=1e-6)
        denom = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4, f"fixed_point_loss gradient rel err {worst:.3e}"

    # (b) prefix log-likelihood through backbone and scale head
    actor = GaussianActor(gen)
    x_exec = rng.normal(size=(3, spec.exec_dim))
    z = rng.standard_normal((3, 4))
    obs_flat = obs.reshape(3, -1)

    def logp_value():
        out = actor.forward(Tensor(obs_flat), Tensor(z))
        return prefix_log_prob(x_exec, out).sum()

    grads = backward(logp_value())
    worst_lp = 0.0
    for name, p in actor.parameters().items():
        analytic = grads.get(p, np.zeros_like(p.data))
        original = p.data.copy()

        def fd_fn(arr):
            p.data = arr
            value = logp_value().item()
            p.data = original
            return value

        numeric = finite_diff(fd_fn, original.copy(), h=1e-6)
        denom = np.maximum(np.abs(numeric), 1e-6)
        worst_lp = max(worst_lp, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst_lp < 1e-4, f"prefix_log_prob gradient rel err {worst_lp:.3e}"

    # (c) total fine-tuning objective on a 4-sample buffer
    critic = Critic(6, hidden_dim=8, seed=0)
    env = PointMassEnv(spec, reward_mode="dense")
    buf = collect_rollouts(env, actor, critic, 4, np.random.default_rng(5))
    compute_gae(buf, 0.99, 0.95)
    nudge = np.random.default_rng(55)
    arrays = actor.generator.param_arrays()
    for name in arrays:
        arrays[name] = arrays[name] + 1e-3 * nudge.standard_normal(arrays[name].shape)
    actor.generator.params.load(arrays)
    anchor = actor.generator.clone()
    arrays["head_b"] = arrays["head_b"] + 0.05
    actor.generator.params.load(arrays)
    cfg = PPOConfig()
    adv = (buf.advantages - buf.advantages.mean()) / (buf.advantages.std() + 1e-8)

    def objective():
        out = actor.forward(Tensor(buf.obs), Tensor(buf.latents))
        lp = prefix_log_prob(buf.exec_actions, out)
        ratio = ppo_ratio(lp, buf.old_log_probs)
        surr = clipped_surrogate(ratio, adv, cfg.clip)
        values_t = critic.forward(Tensor(buf.obs))
        v_loss = 0.5 * (values_t - Tensor(buf.returns)).square().mean()
        ent = prefix_entropy(out).mean()
        anch = anchor_loss(out.mean, anchor, buf.obs, buf.latents)
        return (-1.0 * surr + cfg.value_weight * v_loss
                - cfg.entropy_weight * ent + cfg.anchor_weight * anch)

    _, actor_grads, critic_grads = ppo_minibatch(actor, critic, anchor, buf, np.arange(len(buf)),
                                                 adv, cfg, cfg.anchor_weight)
    grads = {**actor_grads, **critic_grads}
    worst_rl = 0.0
    for name, p in {**actor.parameters(), **critic.params}.items():
        analytic = grads[name]
        original = p.data.copy()

        def fd_fn(arr):
            p.data = arr
            value = objective().item()
            p.data = original
            return value

        numeric = finite_diff(fd_fn, original.copy(), h=1e-6)
        denom = np.maximum(np.abs(numeric), 1e-6)
        worst_rl = max(worst_rl, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.perf_counter() - start
    assert worst_rl < 1e-4, f"total objective gradient rel err {worst_rl:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS gradient suite: rel err drift {worst:.2e}, "
          f"logp {worst_lp:.2e}, total {worst_rl:.2e} in {elapsed:.1f}s")


def test_criterion_4_loss_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        b, g, s = (int(rng.integers(1, 6)) for _ in range(3))
        hyp = rng.uniform(-2, 2, size=(b, g, s))
        pos = rng.uniform(-2, 2, size=(b, int(rng.integers(1, 3)), s))
        pool = build_reference_pool(hyp, pos)
        config = DriftConfig(hypothesis_count=g, temperatures=MULTISCALE_TEMPERATURES)
        field = compute_drift_field(hyp, pool, config)
        loss, _ = fixed_point_loss(hyp, field.target, field.scale)
        worst = max(worst, abs(loss - float(np.mean(np.square(field.aggregate)))))
    assert worst < 1e-10, f"identity gap {worst:.3e}"
    print(f"\nACCEPTANCE 4 PASS loss identity: |loss - mean(V^2)| <= {worst:.2e}")


def test_criterion_5_ratio_equivalence(pretrained_doc):
    spec = TOY_SPEC
    rng = np.random.default_rng(50)
    gen = restore_generator(pretrained_doc)
    actor = GaussianActor(gen)
    worst = 0.0
    obs = rng.normal(size=(1, spec.history_len * 6))
    for _ in range(1000):
        z = rng.standard_normal((1, gen.latent_dim))
        x = rng.normal(size=(1, spec.exec_dim))
        arrays = gen.param_arrays()
        lp_old = prefix_log_prob(x, actor.infer(obs, z))[0]
        for name in arrays:
            arrays[name] = arrays[name] + 1e-3 * rng.standard_normal(arrays[name].shape)
        gen.params.load(arrays)
        lp_new = prefix_log_prob(x, actor.infer(obs, z))[0]
        log_prior = float(-0.5 * z.size * np.log(2 * np.pi) - 0.5 * (z ** 2).sum())
        conditional = np.exp(lp_new - lp_old)
        joint = np.exp((lp_new + log_prior) - (lp_old + log_prior))
        worst = max(worst, abs(joint - conditional))
    assert worst < 1e-12, f"ratio gap {worst:.3e}"

    # epoch-0 recomputation yields exactly unit ratios
    gen2 = restore_generator(pretrained_doc)
    actor2 = GaussianActor(gen2)
    critic = Critic(spec.history_len * 6, seed=0)
    env = PointMassEnv(spec, reward_mode="sparse")
    buf = collect_rollouts(env, actor2, critic, 64, np.random.default_rng(51))
    compute_gae(buf, 0.99, 0.95)
    cfg = PPOConfig(update_epochs=1)
    stats = ppo_update(buf, actor2, critic, gen2.clone(), cfg, np.random.default_rng(52),
                       actor_opt=AdamW(actor2.parameters().keys(), lr=cfg.actor_lr),
                       critic_opt=AdamW(critic.params.keys(), lr=cfg.critic_lr),
                       anchor_weight=cfg.anchor_weight)
    exact_ones = np.all(stats.first_epoch_ratios == 1.0)
    assert exact_ones, "epoch-0 recomputed ratios are not exactly 1"
    print(f"\nACCEPTANCE 5 PASS ratio equivalence: joint-vs-conditional gap "
          f"{worst:.2e} over 1000 pairs; epoch-0 ratios exactly 1 on {len(buf)} samples")


def test_criterion_6_one_nfe_contract(pretrained_doc, train_data):
    spec = TOY_SPEC

    def count_violations(actor, seed):
        rng = np.random.default_rng(seed)
        env = PointMassEnv(spec, reward_mode="sparse")
        obs_hist = env.reset(seed)
        done = True
        violations = 0
        decisions = 0
        while decisions < 1000:
            if done:
                obs_hist = env.reset(seed + decisions)
                done = False
            z = rng.standard_normal(actor.generator.latent_dim)
            before = actor.generator.nfe_count
            chunk = actor.deploy_action(obs_hist, z)
            if actor.generator.nfe_count - before != 1:
                violations += 1
            decisions += 1
            obs_hist, _, done = env.step_prefix(executed_prefix(chunk, spec))
        return violations

    stage1 = GaussianActor(restore_generator(pretrained_doc))
    v1 = count_violations(stage1, 600)

    actor, _, _ = finetune(restore_generator(pretrained_doc),
                           PPOConfig(iterations=2, rollout_length=64, seed=61), "sparse",
                           DEFAULT_LOG_STD_INIT, 0)
    v2 = count_violations(actor, 700)
    assert v1 == 0 and v2 == 0, f"violations stage1={v1} finetuned={v2}"
    print(f"\nACCEPTANCE 6 PASS 1-NFE contract: 0 violations over 1000 decisions "
          f"for both Stage-1 and post-fine-tuning policies")


def test_criterion_7_multimodality_gain(train_data, eval_data):
    start = time.perf_counter()
    coverages = {}
    for g in (1, 4):
        gen = Generator(TOY_SPEC, obs_dim=6, latent_dim=4, hidden_dim=64, seed=0)
        cfg = TrainConfig(steps=300, seed=42, **COVERAGE_TRAIN)
        train(train_data, gen, DriftConfig(hypothesis_count=g,
                                           temperatures=STAGE1_TEMPERATURES), cfg)
        coverages[g] = mode_coverage(gen, eval_data, 64, np.random.default_rng(7))
    elapsed = time.perf_counter() - start
    gap = coverages[4] - coverages[1]
    assert gap >= 0.25, f"coverage gap {gap:.3f} (G4 {coverages[4]:.3f}, G1 {coverages[1]:.3f})"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7 PASS multimodality: coverage G=4 {coverages[4]:.3f} "
          f"vs G=1 {coverages[1]:.3f}, gap {gap:.3f} >= 0.25 in {elapsed:.0f}s")


def test_criterion_8_stage1_loss_halving(train_data):
    # Exactly as specified: fixed-table training configuration (its epochs
    # count gives 1200 steps here), per-seed halving of the 20-step loss mean.
    ratios = {}
    for seed in (42, 43, 44):
        start = time.perf_counter()
        gen = Generator(TOY_SPEC, obs_dim=6, latent_dim=8, hidden_dim=64, seed=0)
        result = train(train_data, gen, DriftConfig(), TrainConfig(seed=seed))
        elapsed = time.perf_counter() - start
        losses = np.array([m["loss"] for m in result.metrics])
        ratios[seed] = float(np.mean(losses[-20:]) / np.mean(losses[:20]))
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s for seed {seed}"
    print(f"\nACCEPTANCE 8 stage-1 loss ratios final/initial: "
          + ", ".join(f"seed {s}: {r:.4f}" for s, r in ratios.items()))
    assert all(r < 0.5 for r in ratios.values()), (
        f"loss never halves: final/initial ratios {ratios}; the training loss "
        "equals the mean squared RMS-normalized drift, which the normalization "
        "pins near 1/S for any nondegenerate data (see decisions ledger)")


def test_criterion_9_dbpo_improvement(pretrained_doc):
    spec = TOY_SPEC

    def sparse_env():
        return PointMassEnv(spec, reward_mode="sparse")

    base = evaluate_policy(sparse_env, GaussianActor(restore_generator(pretrained_doc)),
                           100, 1000)["success_rate"]

    def tuned_success(anchor_weight, seed):
        cfg = PPOConfig(anchor_weight=anchor_weight, seed=seed, iterations=30)
        actor, _, _ = finetune(restore_generator(pretrained_doc), cfg, "sparse",
                               DEFAULT_LOG_STD_INIT, 0)
        return evaluate_policy(sparse_env, actor, 100, 1000)["success_rate"]

    lines = []
    for seed in (42, 43, 44):
        start = time.perf_counter()
        anchored = tuned_success(1.0, seed)
        plain = tuned_success(0.0, seed)
        elapsed = time.perf_counter() - start
        assert anchored > base, (
            f"seed {seed}: anchored success {anchored:.2f} does not exceed "
            f"pretrained {base:.2f}")
        assert (plain - base) <= (anchored - base), (
            f"seed {seed}: no-anchor gain {plain - base:+.2f} exceeds anchored "
            f"{anchored - base:+.2f}")
        assert elapsed < 900.0, f"runtime {elapsed:.1f}s for seed {seed}"
        lines.append(f"seed {seed}: base {base:.2f} anchored {anchored:.2f} "
                     f"no-anchor {plain:.2f} ({elapsed:.0f}s)")
    print("\nACCEPTANCE 9 PASS fine-tuning improvement:\n  " + "\n  ".join(lines))


def test_criterion_10_cli_determinism(tmp_path):
    def cfg_file(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    synth_cfg = cfg_file("synth.json", {"synth.conditions": 12, "synth.seed": 4})
    for out in ("s1", "s2"):
        assert main(["synth", "--config", synth_cfg, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "s1/dataset.csv").read_bytes() == \
        (tmp_path / "s2/dataset.csv").read_bytes()
    assert (tmp_path / "s1/dataset_meta.json").read_bytes() == \
        (tmp_path / "s2/dataset_meta.json").read_bytes()

    train_cfg = cfg_file("train.json", {
        "data.path": str(tmp_path / "s1/dataset.csv"), "train.steps": 8,
        "train.seed": 6, "model.latent_dim": 4, "model.hidden_dim": 16})
    for out in ("t1", "t2"):
        assert main(["train", "--config", train_cfg, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "t1/metrics.csv").read_bytes() == \
        (tmp_path / "t2/metrics.csv").read_bytes()
    assert (tmp_path / "t1/checkpoint_final.json").read_bytes() == \
        (tmp_path / "t2/checkpoint_final.json").read_bytes()

    ft_cfg = cfg_file("ft.json", {
        "checkpoint.path": str(tmp_path / "t1/checkpoint_final.json"),
        "ppo.iterations": 2, "ppo.rollout_length": 12, "ppo.minibatch_size": 6,
        "ppo.update_epochs": 2, "ppo.seed": 8})
    for out in ("f1", "f2"):
        assert main(["finetune", "--config", ft_cfg, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "f1/metrics.csv").read_bytes() == \
        (tmp_path / "f2/metrics.csv").read_bytes()
    assert (tmp_path / "f1/checkpoint_final.json").read_bytes() == \
        (tmp_path / "f2/checkpoint_final.json").read_bytes()
    print("\nACCEPTANCE 10 PASS determinism: synth, train and finetune reruns "
          "are byte-identical (metrics CSVs and checkpoints)")
