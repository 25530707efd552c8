"""Streaming attack consumers: the rank-curve family (plain CPA /
template / MLP / lattice) plus MIA and success-rate.

These wrap ``repro.attacks``' attackers as
:class:`~repro.pipeline.consumers.TraceConsumer` plug-ins, so every
attacker in the catalogue runs inside campaigns, checkpoints and the
scenario matrix exactly like the built-in CPA/TVLA consumers — one pass
over the traces, memory bounded by the chunk size.

Two state shapes appear here, with different merge support:

* **Rank-vs-traces curves** on one key byte share one implementation,
  :class:`DisclosureConsumer` (plain CPA): it alone owns the curve, the
  true byte, metrics, ``result`` (built by :func:`peak_block`),
  ``snapshot``/``restore`` and ``merge``.  :class:`MlpAttackConsumer`
  and :class:`LatticeCpaConsumer` only change the matrix the CPA sees
  per chunk; :class:`TemplateAttackConsumer` keeps additive template
  scores instead of CPA sums.  A curve is acquisition-order dependent,
  so these — and :class:`SuccessRateConsumer`, whose curve is over
  replica success counts — support only the empty-shard directions of
  the merge contract (exact no-op / exact adoption).  The streaming
  engine folds chunks sequentially in the parent, so populated-shard
  merging is never required for campaign runs.
* **Additive accumulators** (integer histograms) merge exactly across
  disjoint shards — :class:`MiaStreamConsumer` supports the
  populated-shard direction.

All randomness is construction-time (the success-rate consumer derives
its replica subsampling from a counter hash of an explicit seed), so
results are bit-identical across worker counts and checkpoint resume.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.attacks.incremental import IncrementalCpa
from repro.attacks.lattice import lattice_align
from repro.attacks.mlp import MlpModel, mlp_expected_hd
from repro.attacks.models import (
    expand_last_round_key,
    last_round_hd_predictions,
)
from repro.attacks.success_rate import wilson_interval
from repro.attacks.template import TemplateModel, template_attack
from repro.errors import AttackError, CheckpointError
from repro.obs.metrics import NULL_METRICS
from repro.power.acquisition import TraceSet

#: Number of last-round HD classes (one state byte toggles 0..8 bits).
_N_CLASSES = 9


def _rank_of(scores: np.ndarray, true_byte: int) -> int:
    """Position of ``true_byte`` when guesses are sorted by descending score.

    The sort is stable, so tied guesses keep guess order — the same
    ranking as :meth:`repro.attacks.cpa.CpaByteResult.rank_of`.
    """
    order = np.argsort(-scores, kind="stable")
    return int(np.nonzero(order == true_byte)[0][0])


def peak_block(peaks: np.ndarray, true_byte: int) -> dict:
    """The outcome of a single-byte attack from its ``(256,)`` per-guess peaks.

    Shared by every rank-curve consumer's :meth:`~DisclosureConsumer.result`
    and by the scenario runner's adaptation of service CPA payloads, so
    a cell reports the same block however its peaks were computed.
    """
    others = np.delete(peaks, true_byte)
    return {
        "best_guess": int(np.argmax(peaks)),
        "true_byte_rank": _rank_of(peaks, true_byte),
        "peak_corr_max": float(peaks.max()),
        "margin": float(peaks[true_byte] - others.max()),
    }


class DisclosureConsumer:
    """Streaming CPA on one key byte plus its rank-vs-traces curve.

    Wraps :class:`~repro.attacks.IncrementalCpa` and records the true
    byte's rank after every folded chunk, giving traces-to-disclosure at
    chunk granularity without a second pass over the traces.

    This is the one single-byte rank-curve consumer: the MLP and lattice
    adversaries subclass it and change only :meth:`_transform`, the
    matrix the CPA correlates per chunk; the template adversary swaps the
    CPA sums for additive scores.  The curve is acquisition-order
    dependent, so ``merge`` supports only the empty-shard directions of
    the consumer contract (exact no-op / exact adoption); the streaming
    engine folds chunks sequentially in the parent and never needs the
    populated-shard direction.
    """

    def __init__(self, key: bytes, byte_index: int = 0, name: str = "disclosure"):
        self._inc = IncrementalCpa(byte_index=byte_index)
        self._byte_index = int(byte_index)
        self._true_byte = int(expand_last_round_key(key)[byte_index])
        self._trace_counts: List[int] = []
        self._ranks: List[int] = []
        self._metrics = NULL_METRICS
        self.name = name

    @property
    def byte_index(self) -> int:
        return self._byte_index

    @property
    def n_traces(self) -> int:
        return self._inc.n_traces

    def set_metrics(self, metrics) -> None:
        """Report per-chunk fold cost into an observed campaign's registry."""
        self._metrics = metrics

    def _transform(self, chunk: TraceSet) -> np.ndarray:
        """The ``(n, samples)`` matrix the CPA correlates for ``chunk``."""
        return chunk.traces

    def _accumulate(self, chunk: TraceSet) -> None:
        self._inc.update(self._transform(chunk), chunk.ciphertexts)

    def _scores(self) -> np.ndarray:
        """Current ``(256,)`` per-guess scores (higher = more likely)."""
        return self._inc.result().peak_corr

    def _settings(self) -> dict:
        """Construction-time floats a snapshot or shard must share."""
        return {}

    def _accumulator_state(self) -> dict:
        return {f"cpa_{k}": v for k, v in self._inc.snapshot().items()}

    def _load_accumulator(self, state: dict) -> None:
        self._inc.restore(
            {k[4:]: v for k, v in state.items() if k.startswith("cpa_")}
        )

    def consume(self, chunk: TraceSet) -> None:
        started = time.perf_counter() if self._metrics.enabled else 0.0
        self._accumulate(chunk)
        rank = _rank_of(self._scores(), self._true_byte)
        self._trace_counts.append(int(self.n_traces))
        self._ranks.append(rank)
        if self._metrics.enabled:
            self._metrics.observe_seconds(
                "attack_fold_seconds",
                time.perf_counter() - started,
                attack=self.name,
            )
            self._metrics.inc(
                "attack_traces_total", chunk.n_traces, attack=self.name
            )
            self._metrics.set_gauge(
                "attack_true_byte_rank", rank, attack=self.name
            )

    def result(self) -> dict:
        """Disclosure curve plus the final attack outcome."""
        first = next(
            (c for c, r in zip(self._trace_counts, self._ranks) if r == 0), None
        )
        return {
            "byte_index": self._byte_index,
            **peak_block(self._scores(), self._true_byte),
            **self._settings(),
            "trace_counts": list(self._trace_counts),
            "ranks": list(self._ranks),
            "first_disclosure": first,
        }

    def snapshot(self) -> dict:
        state = self._accumulator_state()
        state["true_byte"] = self._true_byte
        state["trace_counts"] = np.asarray(self._trace_counts, dtype=np.int64)
        state["ranks"] = np.asarray(self._ranks, dtype=np.int64)
        state.update(self._settings())
        return state

    def restore(self, state: dict) -> None:
        for field, value in self._settings().items():
            if float(state.get(field, np.nan)) != value:
                raise CheckpointError(
                    f"{self.name} snapshot has {field} {state.get(field)}, "
                    f"the consumer has {value}"
                )
        if int(state.get("true_byte", -1)) != self._true_byte:
            raise CheckpointError(
                f"{self.name} snapshot was taken against a different key"
            )
        counts = np.asarray(state.get("trace_counts", ()), dtype=np.int64)
        ranks = np.asarray(state.get("ranks", ()), dtype=np.int64)
        if counts.shape != ranks.shape:
            raise CheckpointError(f"{self.name} snapshot curve length mismatch")
        self._load_accumulator(state)
        self._trace_counts = [int(c) for c in counts]
        self._ranks = [int(r) for r in ranks]

    def merge(self, other: "DisclosureConsumer") -> None:
        if type(other) is not type(self):
            raise AttackError(f"can only merge another {type(self).__name__}")
        if other._settings() != self._settings():
            raise AttackError(
                f"cannot merge {self.name} consumers with different settings "
                f"({other._settings()} != {self._settings()})"
            )
        if other.n_traces == 0:
            return
        if self.n_traces == 0:
            self.restore(other.snapshot())
            return
        raise AttackError(
            "rank curves are acquisition-order dependent; merging two "
            "populated shards is unsupported (fold chunks sequentially)"
        )


class TemplateAttackConsumer(DisclosureConsumer):
    """Streaming profiled-template attack on one key byte.

    Template log-likelihood scores are additive over traces, so the
    consumer keeps a running ``(256,)`` score vector in place of the CPA
    sums and shares the base's rank curve, snapshot and merge.  Its
    result carries no ``peak_corr_max``: the scores are
    log-likelihoods, not correlations.  The
    :class:`~repro.attacks.TemplateModel` is profiled *before* the
    campaign (on the attacker's clone device) and is construction-time
    configuration, not checkpoint state.
    """

    def __init__(
        self,
        model: TemplateModel,
        key: bytes,
        byte_index: int = 0,
        name: str = "template",
    ):
        super().__init__(key, byte_index, name)
        self._model = model
        self._total = np.zeros(256, dtype=np.float64)
        self._n_traces = 0

    @property
    def n_traces(self) -> int:
        return self._n_traces

    def _accumulate(self, chunk: TraceSet) -> None:
        self._total += template_attack(
            self._model, chunk.traces, chunk.ciphertexts, self._byte_index
        )
        self._n_traces += chunk.n_traces

    def _scores(self) -> np.ndarray:
        if self._n_traces == 0:
            raise AttackError("no traces accumulated")
        return self._total

    def _accumulator_state(self) -> dict:
        return {"n_traces": int(self._n_traces), "scores": self._total.copy()}

    def _load_accumulator(self, state: dict) -> None:
        scores = np.asarray(state.get("scores", ()), dtype=np.float64)
        if scores.shape != (256,):
            raise CheckpointError("template snapshot needs (256,) scores")
        n = int(state.get("n_traces", -1))
        if n < 0:
            raise CheckpointError("template snapshot n_traces must be >= 0")
        self._total = scores.copy()
        self._n_traces = n

    def result(self) -> dict:
        result = super().result()
        del result["peak_corr_max"]
        return result


class MlpAttackConsumer(DisclosureConsumer):
    """Streaming profiled-MLP attack on one key byte.

    The trained network (:class:`~repro.attacks.mlp.MlpModel`, profiled
    on a clone device before the campaign) condenses each trace to its
    posterior-mean HD, and the base's CPA correlates that single learned
    feature against every key guess — the streaming form of
    ``mlp_attack(scoring="correlation")``.  Snapshots carry only the
    running sums; the weights are construction-time configuration.
    """

    def __init__(
        self,
        model: MlpModel,
        key: bytes,
        byte_index: Optional[int] = None,
        name: str = "mlp",
    ):
        byte_index = (
            model.byte_index if byte_index is None else int(byte_index)
        )
        super().__init__(key, byte_index, name)
        self._model = model

    def _transform(self, chunk: TraceSet) -> np.ndarray:
        return mlp_expected_hd(self._model, chunk.traces)[:, None]


class LatticeCpaConsumer(DisclosureConsumer):
    """Streaming lattice-alignment CPA on one key byte.

    Each chunk is realigned by its known completion times
    (:func:`~repro.attacks.lattice.lattice_align`) before the base's
    incremental CPA sees it.  ``reference_ns`` is part of every snapshot
    and merge check, and must be fixed up front —
    derive it from the frequency *plan*'s full lattice
    (``plan.all_completion_times_ns().max()``) rather than from observed
    traces, so the alignment target never depends on which chunks have
    arrived (that is what keeps worker counts and resume bit-identical).
    """

    def __init__(
        self,
        key: bytes,
        reference_ns: float,
        byte_index: int = 0,
        resolution_ns: Optional[float] = None,
        name: str = "lattice",
    ):
        if not np.isfinite(reference_ns) or reference_ns < 0:
            raise AttackError(
                "reference_ns must be a non-negative finite float"
            )
        super().__init__(key, byte_index, name)
        self.reference_ns = float(reference_ns)
        self.resolution_ns = (
            float(resolution_ns) if resolution_ns is not None else None
        )

    def _transform(self, chunk: TraceSet) -> np.ndarray:
        return lattice_align(
            chunk.traces,
            chunk.completion_times_ns,
            chunk.sample_period_ns,
            self.reference_ns,
            self.resolution_ns,
        )

    def _settings(self) -> dict:
        return {"reference_ns": self.reference_ns}


class MiaStreamConsumer:
    """Streaming mutual-information analysis on one key byte.

    Unlike the batch :func:`~repro.attacks.mia.mia_byte` (whose histogram
    edges adapt to the data and therefore depend on which traces were
    seen), the streaming form fixes its value bins at construction —
    ``(bin_lo, bin_hi, n_bins)`` spanning the scope's ADC range by
    default, values outside clipped into the edge bins.  State is a pure
    integer joint histogram ``counts[sample, guess, class, bin]``, so
    merges are exact in *both* directions of the consumer contract
    (this is the only attack consumer with no order-dependent curve).

    ``sample_stride`` thins the tracked samples (every ``stride``-th
    sample) to bound the histogram: the default stride 4 on 256-sample
    traces keeps ~2.4 M int64 cells (~19 MB) per consumer.  The default
    value range ``[0, 100)`` with 16 bins gives ~6-unit bins, matched to
    the synthetic scope's ~2-4 unit per-sample noise — the full ADC range
    ``[0, 400)`` would need ~64 bins for the same resolution.
    """

    def __init__(
        self,
        key: bytes,
        byte_index: int = 0,
        bin_lo: float = 0.0,
        bin_hi: float = 100.0,
        n_bins: int = 16,
        sample_stride: int = 4,
        name: str = "mia",
    ):
        if not np.isfinite(bin_lo) or not np.isfinite(bin_hi) or bin_hi <= bin_lo:
            raise AttackError("need finite bin_lo < bin_hi")
        if n_bins < 2:
            raise AttackError("n_bins must be >= 2")
        if sample_stride < 1:
            raise AttackError("sample_stride must be >= 1")
        self._byte_index = int(byte_index)
        self._true_byte = int(expand_last_round_key(key)[byte_index])
        self.bin_lo = float(bin_lo)
        self.bin_hi = float(bin_hi)
        self.n_bins = int(n_bins)
        self.sample_stride = int(sample_stride)
        self.n_traces = 0
        self._counts: Optional[np.ndarray] = None  # (n_sel, 256, 9, bins)
        self._metrics = NULL_METRICS
        self.name = name

    @property
    def byte_index(self) -> int:
        return self._byte_index

    def set_metrics(self, metrics) -> None:
        """Report per-chunk fold cost into an observed campaign's registry."""
        self._metrics = metrics

    def _quantize(self, values: np.ndarray) -> np.ndarray:
        scaled = (values - self.bin_lo) / (self.bin_hi - self.bin_lo)
        bins = np.floor(scaled * self.n_bins).astype(np.int64)
        return np.clip(bins, 0, self.n_bins - 1)

    def consume(self, chunk: TraceSet) -> None:
        started = time.perf_counter() if self._metrics.enabled else 0.0
        traces = np.asarray(chunk.traces, dtype=np.float64)
        selected = traces[:, :: self.sample_stride]
        n, n_sel = selected.shape
        if self._counts is None:
            self._counts = np.zeros(
                (n_sel, 256, _N_CLASSES, self.n_bins), dtype=np.int64
            )
        elif self._counts.shape[0] != n_sel:
            raise AttackError(
                f"chunk has {n_sel} strided samples, accumulator has "
                f"{self._counts.shape[0]} — mixed trace lengths?"
            )
        bins = self._quantize(selected)  # (n, n_sel)
        hd = last_round_hd_predictions(
            chunk.ciphertexts, self._byte_index
        ).astype(np.int64)  # (n, 256)
        # Joint histogram per strided sample: flatten (guess, class, bin)
        # into one bincount per sample — one O(n * 256) pass each.
        guess_offset = (
            np.arange(256, dtype=np.int64)[None, :]
            * _N_CLASSES
            * self.n_bins
        )
        class_bin = hd * self.n_bins  # (n, 256)
        size = 256 * _N_CLASSES * self.n_bins
        for si in range(n_sel):
            flat = class_bin + bins[:, si][:, None] + guess_offset
            self._counts[si] += np.bincount(
                flat.ravel(), minlength=size
            ).reshape(256, _N_CLASSES, self.n_bins)
        self.n_traces += n
        if self._metrics.enabled:
            self._metrics.observe_seconds(
                "attack_fold_seconds",
                time.perf_counter() - started,
                attack=self.name,
            )
            self._metrics.inc(
                "attack_traces_total", chunk.n_traces, attack=self.name
            )

    def _mutual_information(self) -> np.ndarray:
        """MI in bits per (strided sample, guess), shape ``(n_sel, 256)``."""
        joint = self._counts.astype(np.float64) / self.n_traces
        p_class = joint.sum(axis=3, keepdims=True)
        p_bin = joint.sum(axis=2, keepdims=True)
        denom = p_class * p_bin
        # Where joint == 0 the ratio is pinned to 1, so log2 is 0 and the
        # term drops out — no masked log needed.
        ratio = np.divide(
            joint, denom, out=np.ones_like(joint), where=joint > 0
        )
        return (joint * np.log2(ratio)).sum(axis=(2, 3))

    def result(self) -> dict:
        if self.n_traces == 0 or self._counts is None:
            raise AttackError("no traces accumulated")
        mi = self._mutual_information()
        scores = mi.max(axis=0)  # (256,) best MI over samples per guess
        best = int(np.argmax(scores))
        others = np.delete(scores, self._true_byte)
        return {
            "byte_index": self._byte_index,
            "best_guess": best,
            "true_byte_rank": _rank_of(scores, self._true_byte),
            "max_mi_bits": float(scores.max()),
            "margin": float(scores[self._true_byte] - others.max()),
            "n_traces": int(self.n_traces),
        }

    def snapshot(self) -> dict:
        state = {
            "true_byte": self._true_byte,
            "n_traces": int(self.n_traces),
            "bin_lo": self.bin_lo,
            "bin_hi": self.bin_hi,
            "n_bins": self.n_bins,
            "sample_stride": self.sample_stride,
        }
        if self._counts is not None:
            state["counts"] = self._counts.copy()
        return state

    def restore(self, state: dict) -> None:
        if int(state.get("true_byte", -1)) != self._true_byte:
            raise CheckpointError(
                "mia snapshot was taken against a different key"
            )
        for field in ("bin_lo", "bin_hi", "n_bins", "sample_stride"):
            if float(state.get(field, np.nan)) != float(getattr(self, field)):
                raise CheckpointError(
                    f"mia snapshot {field} does not match the consumer"
                )
        n = int(state.get("n_traces", -1))
        if n < 0:
            raise CheckpointError("mia snapshot n_traces must be >= 0")
        if "counts" in state:
            counts = np.asarray(state["counts"], dtype=np.int64)
            if counts.ndim != 4 or counts.shape[1:] != (
                256,
                _N_CLASSES,
                self.n_bins,
            ):
                raise CheckpointError("mia snapshot counts have a bad shape")
            self._counts = counts.copy()
        else:
            self._counts = None
        self.n_traces = n

    def merge(self, other: "MiaStreamConsumer") -> None:
        """Add a disjoint shard's joint histogram (exact integer counts)."""
        if not isinstance(other, MiaStreamConsumer):
            raise AttackError("can only merge another MiaStreamConsumer")
        if (
            other.bin_lo != self.bin_lo
            or other.bin_hi != self.bin_hi
            or other.n_bins != self.n_bins
            or other.sample_stride != self.sample_stride
        ):
            raise AttackError(
                "cannot merge MIA consumers with different binnings"
            )
        if other._counts is None:
            return
        if self._counts is None:
            self._counts = other._counts.copy()
        elif self._counts.shape != other._counts.shape:
            raise AttackError("cannot merge MIA histograms of mixed shapes")
        else:
            self._counts += other._counts
        self.n_traces += other.n_traces


def _replica_keep_mask(
    indices: np.ndarray, replica: int, seed: int, keep_fraction: float
) -> np.ndarray:
    """Deterministic Bernoulli thinning by absolute trace index.

    A SplitMix64-style counter hash of ``(seed, replica, index)`` maps
    each trace to a uniform in [0, 1); a trace joins the replica when it
    falls below ``keep_fraction``.  Pure function of the inputs — chunk
    boundaries, worker counts and resume points cannot change which
    traces a replica sees.
    """
    x = np.asarray(indices, dtype=np.uint64)
    x = x + np.uint64((seed * 0x9E3779B9 + replica * 0x85EBCA6B) & 0xFFFFFFFFFFFFFFFF)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    uniform = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return uniform < keep_fraction


class SuccessRateConsumer:
    """Streaming success-rate-vs-traces curve with Wilson bands.

    The batch protocol (``success_rate_curve``) re-attacks random
    subsets at each budget, which needs the whole campaign in memory.
    The streaming form runs ``n_replicas`` parallel CPA attackers, each
    fed an independent deterministic Bernoulli thinning (rate
    ``keep_fraction``) of the trace stream; after every chunk, the
    fraction of replicas at rank 0 estimates SR at the current budget,
    and :func:`~repro.attacks.success_rate.wilson_interval` turns the
    replica count into a confidence band.  One pass, bounded memory,
    and — because the thinning is a counter hash of ``(seed, replica,
    absolute index)`` — byte-identical across worker counts and resume.
    """

    def __init__(
        self,
        key: bytes,
        byte_index: int = 0,
        n_replicas: int = 8,
        keep_fraction: float = 0.5,
        seed: int = 0,
        name: str = "success_rate",
    ):
        if n_replicas < 1:
            raise AttackError("n_replicas must be >= 1")
        if not 0.0 < keep_fraction <= 1.0:
            raise AttackError("keep_fraction must be in (0, 1]")
        self._byte_index = int(byte_index)
        self._true_byte = int(expand_last_round_key(key)[byte_index])
        self.n_replicas = int(n_replicas)
        self.keep_fraction = float(keep_fraction)
        self.seed = int(seed)
        self._replicas = [
            IncrementalCpa(byte_index=byte_index) for _ in range(n_replicas)
        ]
        self.n_traces = 0  # traces *offered* (the SR curve's x axis)
        self._trace_counts: List[int] = []
        self._successes: List[int] = []
        self._metrics = NULL_METRICS
        self.name = name

    @property
    def byte_index(self) -> int:
        return self._byte_index

    def set_metrics(self, metrics) -> None:
        """Report per-chunk fold cost into an observed campaign's registry."""
        self._metrics = metrics

    def consume(self, chunk: TraceSet) -> None:
        started = time.perf_counter() if self._metrics.enabled else 0.0
        n = chunk.n_traces
        indices = np.arange(self.n_traces, self.n_traces + n, dtype=np.int64)
        for replica, inc in enumerate(self._replicas):
            mask = _replica_keep_mask(
                indices, replica, self.seed, self.keep_fraction
            )
            if mask.any():
                inc.update(chunk.traces[mask], chunk.ciphertexts[mask])
        self.n_traces += n
        successes = sum(
            1
            for inc in self._replicas
            if inc.n_traces > 0
            and inc.result().rank_of(self._true_byte) == 0
        )
        self._trace_counts.append(self.n_traces)
        self._successes.append(successes)
        if self._metrics.enabled:
            self._metrics.observe_seconds(
                "attack_fold_seconds",
                time.perf_counter() - started,
                attack=self.name,
            )
            self._metrics.inc(
                "attack_traces_total", n, attack=self.name
            )
            self._metrics.set_gauge(
                "attack_success_rate",
                successes / self.n_replicas,
                attack=self.name,
            )

    def result(self) -> dict:
        if not self._trace_counts:
            raise AttackError("no traces accumulated")
        successes = np.asarray(self._successes, dtype=np.float64)
        rates = successes / self.n_replicas
        bands = wilson_interval(successes, self.n_replicas)
        disclosed = None
        for count, rate in zip(self._trace_counts, rates):
            if rate >= 0.8:
                disclosed = count
                break
        return {
            "byte_index": self._byte_index,
            "n_replicas": self.n_replicas,
            "keep_fraction": self.keep_fraction,
            "trace_counts": list(self._trace_counts),
            "success_rates": [float(r) for r in rates],
            "wilson_low": [float(lo) for lo in bands[:, 0]],
            "wilson_high": [float(hi) for hi in bands[:, 1]],
            "final_success_rate": float(rates[-1]),
            "traces_to_disclosure": disclosed,
        }

    def snapshot(self) -> dict:
        state = {
            "true_byte": self._true_byte,
            "n_replicas": self.n_replicas,
            "keep_fraction": self.keep_fraction,
            "seed": self.seed,
            "n_traces": int(self.n_traces),
            "trace_counts": np.asarray(self._trace_counts, dtype=np.int64),
            "successes": np.asarray(self._successes, dtype=np.int64),
        }
        for replica, inc in enumerate(self._replicas):
            for k, v in inc.snapshot().items():
                state[f"r{replica}_{k}"] = v
        return state

    def restore(self, state: dict) -> None:
        if int(state.get("true_byte", -1)) != self._true_byte:
            raise CheckpointError(
                "success-rate snapshot was taken against a different key"
            )
        if (
            int(state.get("n_replicas", -1)) != self.n_replicas
            or float(state.get("keep_fraction", -1.0)) != self.keep_fraction
            or int(state.get("seed", ~self.seed)) != self.seed
        ):
            raise CheckpointError(
                "success-rate snapshot replica configuration does not "
                "match the consumer"
            )
        counts = np.asarray(state.get("trace_counts", ()), dtype=np.int64)
        successes = np.asarray(state.get("successes", ()), dtype=np.int64)
        if counts.shape != successes.shape:
            raise CheckpointError(
                "success-rate snapshot curve length mismatch"
            )
        n = int(state.get("n_traces", -1))
        if n < 0:
            raise CheckpointError(
                "success-rate snapshot n_traces must be >= 0"
            )
        for replica, inc in enumerate(self._replicas):
            prefix = f"r{replica}_"
            inc.restore(
                {
                    k[len(prefix):]: v
                    for k, v in state.items()
                    if k.startswith(prefix)
                }
            )
        self.n_traces = n
        self._trace_counts = [int(c) for c in counts]
        self._successes = [int(s) for s in successes]

    def merge(self, other: "SuccessRateConsumer") -> None:
        if isinstance(other, SuccessRateConsumer) and (
            other.n_replicas != self.n_replicas
            or other.keep_fraction != self.keep_fraction
            or other.seed != self.seed
        ):
            raise AttackError(
                "cannot merge success-rate consumers with different "
                "replica configurations"
            )
        if not isinstance(other, SuccessRateConsumer):
            raise AttackError("can only merge another SuccessRateConsumer")
        if other.n_traces == 0:
            return
        if self.n_traces == 0:
            self.restore(other.snapshot())
            return
        raise AttackError(
            "success-rate curves are acquisition-order dependent; merging "
            "two populated shards is unsupported (fold chunks sequentially)"
        )
