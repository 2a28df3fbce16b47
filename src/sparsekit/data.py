"""Deterministic synthetic corpus, MLM masking, and a toy classification task."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .tensor import ContractError

PAD, MASK, UNK, CLS, SEP = 0, 1, 2, 3, 4
NUM_RESERVED = 5


def _regular_ids(vocab_size: int) -> np.ndarray:
    """The token ids after the reserved ones."""
    if vocab_size < 8:
        raise ContractError("vocab size must be >= 8")
    return np.arange(NUM_RESERVED, vocab_size)


def _rng(*key) -> np.random.Generator:
    import hashlib

    ints = [int.from_bytes(hashlib.sha256(str(k).encode()).digest()[:8], "little")
            if isinstance(k, str) else int(k) for k in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(ints)))


@dataclass
class Corpus:
    vocab_size: int
    train: List[np.ndarray]
    validation: List[np.ndarray]


def _split_point(key: str, n: int) -> int:
    """Training items of the 95/5 split of n items; both splits must be non-empty."""
    n_train = min(n, max(1, round(0.95 * n)))
    if n_train == n:
        split = "training" if n < 1 else "validation"
        raise ContractError(f"{key} = {n} leaves the {split} split empty")
    return n_train


def build_synthetic_corpus(seed: int, num_sequences: int, vocab_size: int = 64,
                           seq_len: int = 64) -> Corpus:
    """Order-2 Markov token streams with skewed transitions, split 95/5.

    Each sequence draws its two start tokens, then one uniform per further
    token, which picks from the context's CDF as `Generator.choice(k, p=...)`
    would. Drawing the uniforms up front lets every sequence advance at once.
    """
    regular = _regular_ids(vocab_size)
    n_train = _split_point("num_sequences", num_sequences)
    if seq_len < 2:
        raise ContractError(f"seq_len must be >= 2, got {seq_len}")
    k = regular.size
    rng = _rng("corpus", seed)
    # skewed per-context distributions so the stream has learnable structure
    trans = rng.dirichlet(np.full(k, 0.3), size=(k, k))
    body = seq_len - 2
    toks = np.empty((num_sequences, 2 + body), dtype=np.int64)
    u = np.empty((num_sequences, body))
    for i in range(num_sequences):
        toks[i, :2] = rng.integers(0, k, size=2)
        u[i] = rng.random(body)
    for t in range(body):
        cdf = trans[toks[:, t], toks[:, t + 1]].cumsum(-1)
        cdf /= cdf[:, -1:]
        # entries <= u in a sorted row: searchsorted(u, side="right")
        toks[:, t + 2] = (cdf <= u[:, t, None]).sum(axis=1)
    sequences = list(regular[toks])
    return Corpus(vocab_size, sequences[:n_train], sequences[n_train:])


@dataclass
class MlmBatch:
    """Masked token ids, and the positions that the MLM loss scores: their
    flat indices into the batch x seq grid in row-major order, and each
    one's original id."""
    input_ids: np.ndarray
    positions: np.ndarray
    targets: np.ndarray
    attention_mask: np.ndarray


def make_mlm_batch(corpus: Corpus, seed: int, batch: int, seq_len: int,
                   short_prob: float = 0.1, split: str = "train") -> MlmBatch:
    """BERT-recipe masking: 15% of non-special positions, 80/10/10 replacement."""
    pool = corpus.train if split == "train" else corpus.validation
    rng = _rng("mlm", seed)
    regular = _regular_ids(corpus.vocab_size)
    input_ids = np.full((batch, seq_len), PAD, dtype=np.int64)
    positions, targets = [], []
    attention = np.zeros((batch, seq_len), dtype=np.int64)
    for i in range(batch):
        seq = pool[int(rng.integers(0, len(pool)))]
        body_len = seq_len - 2
        if rng.random() < short_prob and seq_len > 4:
            body_len = int(rng.integers(4, seq_len)) - 2  # total length in [4, seq_len-1]
        body = seq[:body_len]
        row = np.concatenate(([CLS], body, [SEP]))
        n = row.size
        input_ids[i, :n] = row
        attention[i, :n] = 1
        for j in range(1, n - 1):  # skip CLS and SEP
            if rng.random() < 0.15:
                positions.append(i * seq_len + j)
                targets.append(input_ids[i, j])
                r = rng.random()
                if r < 0.8:
                    input_ids[i, j] = MASK
                elif r < 0.9:
                    input_ids[i, j] = int(rng.choice(regular))
    return MlmBatch(input_ids, np.array(positions, dtype=np.int64),
                    np.array(targets, dtype=np.int64), attention)


@dataclass
class TaskBatch:
    input_ids: np.ndarray
    labels: np.ndarray
    attention_mask: np.ndarray


@dataclass
class TaskDataset:
    train: TaskBatch
    validation: TaskBatch
    num_labels: int


def make_task_dataset(seed: int, num_examples: int, num_labels: int,
                      vocab_size: int = 64, seq_len: int = 16) -> TaskDataset:
    """Balanced sequences whose label is the dominant token group.

    Regular tokens are partitioned into num_labels groups; an example with
    label g draws most tokens from group g, so the mapping is learnable by
    a tiny encoder.
    """
    if num_labels < 2:
        raise ContractError("need at least two labels")
    regular = _regular_ids(vocab_size)
    if num_labels > regular.size:
        raise ContractError(f"num_labels = {num_labels} exceeds the {regular.size} regular tokens")
    n_train = _split_point("num_examples", num_examples)
    if seq_len < 2:
        raise ContractError(f"seq_len must be >= 2, got {seq_len}")
    groups = np.array_split(regular, num_labels)
    rng = _rng("task", seed)
    ids = np.full((num_examples, seq_len), PAD, dtype=np.int64)
    labels = np.empty(num_examples, dtype=np.int64)
    attention = np.ones((num_examples, seq_len), dtype=np.int64)
    for i in range(num_examples):
        g = i % num_labels  # round-robin keeps labels balanced within 1
        # a[rng.integers(0, a.size, n)] draws what rng.choice(a, n) draws
        group = groups[g]
        body = np.where(
            rng.random(seq_len - 2) < 0.75,
            group[rng.integers(0, group.size, seq_len - 2)],
            regular[rng.integers(0, regular.size, seq_len - 2)],
        )
        ids[i, 0] = CLS
        ids[i, 1:-1] = body
        ids[i, -1] = SEP
        labels[i] = g
    perm = rng.permutation(num_examples)
    ids, labels = ids[perm], labels[perm]
    return TaskDataset(
        TaskBatch(ids[:n_train], labels[:n_train], attention[:n_train]),
        TaskBatch(ids[n_train:], labels[n_train:], attention[n_train:]),
        num_labels,
    )


def task_minibatch_indices(dataset: TaskDataset, seed: int, batch: int) -> np.ndarray:
    """The train-split rows of one minibatch, drawn with replacement for this seed."""
    rng = _rng("task-batch", seed)
    return rng.integers(0, dataset.train.input_ids.shape[0], size=batch)


def task_minibatch(dataset: TaskDataset, rows: np.ndarray) -> TaskBatch:
    """The train-split examples at `rows`, in that order."""
    t = dataset.train
    return TaskBatch(t.input_ids[rows], t.labels[rows], t.attention_mask[rows])
