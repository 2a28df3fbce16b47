import numpy as np
import pytest

from sparsekit import data
from sparsekit.data import (CLS, MASK, NUM_RESERVED, PAD, SEP,
                            _rng, build_synthetic_corpus, make_mlm_batch,
                            make_task_dataset, task_minibatch,
                            task_minibatch_indices)
from sparsekit.tensor import ContractError


def test_corpus_split_and_shapes():
    corpus = build_synthetic_corpus(seed=0, num_sequences=100, vocab_size=32, seq_len=20)
    assert len(corpus.train) == 95
    assert len(corpus.validation) == 5
    for seq in corpus.train + corpus.validation:
        assert seq.shape == (20,)
        assert seq.min() >= NUM_RESERVED
        assert seq.max() < 32


def test_corpus_deterministic():
    a = build_synthetic_corpus(seed=3, num_sequences=20, vocab_size=16, seq_len=12)
    b = build_synthetic_corpus(seed=3, num_sequences=20, vocab_size=16, seq_len=12)
    for x, y in zip(a.train, b.train):
        np.testing.assert_array_equal(x, y)
    c = build_synthetic_corpus(seed=4, num_sequences=20, vocab_size=16, seq_len=12)
    assert any(not np.array_equal(x, y) for x, y in zip(a.train, c.train))


def test_corpus_has_structure():
    # an order-2 stream with skewed transitions is far from uniform:
    # the most frequent successor of a frequent bigram dominates
    corpus = build_synthetic_corpus(seed=1, num_sequences=200, vocab_size=16, seq_len=64)
    stream = np.concatenate(corpus.train)
    from collections import Counter
    succ = Counter(zip(stream[:-1], stream[1:], stream[2:]))
    bigrams = Counter(zip(stream[:-1], stream[1:]))
    (top_bigram, count), = bigrams.most_common(1)
    best = max(v for (a, b, c), v in succ.items() if (a, b) == top_bigram)
    assert best / count > 2 / (16 - NUM_RESERVED)


def test_corpus_validation():
    with pytest.raises(ContractError):
        build_synthetic_corpus(seed=0, num_sequences=0)
    with pytest.raises(ContractError):
        build_synthetic_corpus(seed=0, num_sequences=5, vocab_size=4)


# Each split of the 95/5 split needs an item: 11 is the smallest count that
# leaves one for validation (10 rounds to 10 training items).
@pytest.mark.parametrize("n, split", [(-3, "training"), (0, "training"), (1, "validation"),
                                      (5, "validation"), (10, "validation")])
def test_empty_split_is_contract_error(n, split):
    with pytest.raises(ContractError, match=f"num_sequences = {n} leaves the {split} split empty"):
        build_synthetic_corpus(seed=0, num_sequences=n, vocab_size=16, seq_len=8)
    with pytest.raises(ContractError, match=f"num_examples = {n} leaves the {split} split empty"):
        make_task_dataset(seed=0, num_examples=n, num_labels=2, vocab_size=16, seq_len=8)


def test_smallest_split_has_one_validation_item():
    corpus = build_synthetic_corpus(seed=0, num_sequences=11, vocab_size=16, seq_len=8)
    task = make_task_dataset(seed=0, num_examples=11, num_labels=2, vocab_size=16, seq_len=8)
    assert (len(corpus.train), len(corpus.validation)) == (10, 1)
    assert (task.train.labels.size, task.validation.labels.size) == (10, 1)


def _per_token_corpus(seed, num_sequences, vocab_size, seq_len):
    """Reference: one `Generator.choice` call per token, from one stream."""
    regular = np.arange(NUM_RESERVED, vocab_size)
    k = regular.size
    rng = _rng("corpus", seed)
    trans = rng.dirichlet(np.full(k, 0.3), size=(k, k))
    sequences = []
    for _ in range(num_sequences):
        a, b = rng.integers(0, k, size=2)
        toks = [int(regular[a]), int(regular[b])]
        for _ in range(seq_len - 2):
            c = rng.choice(k, p=trans[a, b])
            toks.append(int(regular[c]))
            a, b = b, c
        sequences.append(np.array(toks, dtype=np.int64))
    return sequences


@pytest.mark.parametrize("seed,num_sequences,vocab_size,seq_len", [
    (0, 11, 64, 8), (1, 400, 64, 16), (2, 50, 32, 64), (3, 20, 16, 2),
    (5, 30, 9, 3), (123456789, 200, 16, 64)])
def test_corpus_matches_per_token_choice(seed, num_sequences, vocab_size, seq_len):
    corpus = build_synthetic_corpus(seed, num_sequences, vocab_size, seq_len)
    got = corpus.train + corpus.validation
    want = _per_token_corpus(seed, num_sequences, vocab_size, seq_len)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# a sequence starts with two context tokens, so a shorter one cannot be built
@pytest.mark.parametrize("seq_len", [1, 0])
def test_corpus_seq_len_below_two_is_contract_error(seq_len):
    with pytest.raises(ContractError, match=f"seq_len must be >= 2, got {seq_len}"):
        build_synthetic_corpus(4, 12, 8, seq_len)


@pytest.fixture(scope="module")
def corpus():
    return build_synthetic_corpus(seed=7, num_sequences=50, vocab_size=32, seq_len=24)


def test_mlm_batch_layout(corpus):
    b = make_mlm_batch(corpus, seed=0, batch=8, seq_len=16)
    assert b.input_ids.shape == (8, 16)
    assert b.attention_mask.shape == (8, 16)
    assert b.positions.ndim == 1 and b.targets.shape == b.positions.shape
    # flat indices in row-major order, each scored once
    assert (np.diff(b.positions) > 0).all()
    # targets are the regular ids the masking replaced or kept
    assert (b.targets >= NUM_RESERVED).all() and (b.targets < 32).all()
    for i in range(8):
        n = int(b.attention_mask[i].sum())
        assert b.input_ids[i, 0] == CLS
        assert b.input_ids[i, n - 1] == SEP
        assert (b.input_ids[i, n:] == PAD).all()
        # targets only on attended, non-special positions
        masked = b.positions[b.positions // 16 == i] % 16
        assert all(0 < j < n - 1 for j in masked)


def test_mlm_masking_rates(corpus, monkeypatch):
    monkeypatch.setattr(data, "SHORT_PROB", 0.0)
    total, masked, kept_as_mask, kept_same = 0, 0, 0, 0
    for s in range(40):
        b = make_mlm_batch(corpus, seed=s, batch=16, seq_len=24)
        masked_ids = b.input_ids.reshape(-1)[b.positions]
        total += int((b.attention_mask.sum(axis=1) - 2).sum())
        masked += b.positions.size
        kept_as_mask += int((masked_ids == MASK).sum())
        kept_same += int((masked_ids == b.targets).sum())
    assert masked / total == pytest.approx(0.15, abs=0.01)
    assert kept_as_mask / masked == pytest.approx(0.80, abs=0.03)
    assert kept_same / masked == pytest.approx(0.10, abs=0.03)


def test_mlm_short_sequences(corpus, monkeypatch):
    monkeypatch.setattr(data, "SHORT_PROB", 1.0)
    lengths = set()
    for s in range(30):
        b = make_mlm_batch(corpus, seed=s, batch=16, seq_len=16)
        lengths.update(b.attention_mask.sum(axis=1).tolist())
    assert min(lengths) >= 4
    assert max(lengths) <= 15


def test_mlm_deterministic(corpus):
    a = make_mlm_batch(corpus, seed=5, batch=4, seq_len=16)
    b = make_mlm_batch(corpus, seed=5, batch=4, seq_len=16)
    np.testing.assert_array_equal(a.input_ids, b.input_ids)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.targets, b.targets)


@pytest.mark.parametrize("split", ["Train", "val", ""])
def test_mlm_unknown_split_is_contract_error(corpus, split):
    """Only "train" and "validation" name a split; a misspelt one is an
    error, not a silent validation batch."""
    with pytest.raises(ContractError, match=f"split must be 'train' or 'validation', "
                                            f"got {split!r}"):
        make_mlm_batch(corpus, seed=0, batch=4, seq_len=16, split=split)


def test_task_dataset_balance_and_split():
    ds = make_task_dataset(seed=0, num_examples=200, num_labels=4, vocab_size=32, seq_len=12)
    assert ds.train.input_ids.shape == (190, 12)
    assert ds.validation.input_ids.shape == (10, 12)
    all_labels = np.concatenate([ds.train.labels, ds.validation.labels])
    counts = np.bincount(all_labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_task_label_is_dominant_group():
    ds = make_task_dataset(seed=1, num_examples=100, num_labels=3, vocab_size=35, seq_len=16)
    regular = np.arange(NUM_RESERVED, 35)
    groups = np.array_split(regular, 3)
    correct = 0
    for row, label in zip(ds.train.input_ids, ds.train.labels):
        body = row[1:-1]
        hits = [np.isin(body, g).sum() for g in groups]
        correct += int(np.argmax(hits) == label)
    assert correct / len(ds.train.labels) > 0.95


def test_task_dataset_validation():
    with pytest.raises(ContractError):
        make_task_dataset(seed=0, num_examples=10, num_labels=1)


# the body of a task example sits between CLS and SEP
@pytest.mark.parametrize("seq_len", [1, 0, -1])
def test_task_dataset_seq_len_below_two_is_contract_error(seq_len):
    with pytest.raises(ContractError, match=f"seq_len must be >= 2, got {seq_len}"):
        make_task_dataset(0, 20, 2, 16, seq_len)


def _choice_task_dataset(seed, num_examples, num_labels, vocab_size, seq_len):
    """Reference: the task rows drawn with `Generator.choice`, one call per pick set."""
    regular = np.arange(NUM_RESERVED, vocab_size)
    groups = np.array_split(regular, num_labels)
    rng = _rng("task", seed)
    ids = np.full((num_examples, seq_len), PAD, dtype=np.int64)
    labels = np.empty(num_examples, dtype=np.int64)
    for i in range(num_examples):
        g = i % num_labels
        body = np.where(rng.random(seq_len - 2) < 0.75,
                        rng.choice(groups[g], size=seq_len - 2),
                        rng.choice(regular, size=seq_len - 2))
        ids[i] = np.concatenate(([CLS], body, [SEP]))
        labels[i] = g
    perm = rng.permutation(num_examples)
    return ids[perm], labels[perm]


@pytest.mark.parametrize("seed,num_examples,num_labels,vocab_size,seq_len", [
    (7, 1000, 3, 64, 16), (12345, 60, 4, 19, 2)])
def test_task_dataset_matches_choice_reference(seed, num_examples, num_labels, vocab_size,
                                               seq_len):
    ds = make_task_dataset(seed, num_examples, num_labels, vocab_size, seq_len)
    want_ids, want_labels = _choice_task_dataset(seed, num_examples, num_labels, vocab_size,
                                                 seq_len)
    got_ids = np.concatenate([ds.train.input_ids, ds.validation.input_ids])
    got_labels = np.concatenate([ds.train.labels, ds.validation.labels])
    assert got_ids.dtype == want_ids.dtype and got_ids.tobytes() == want_ids.tobytes()
    assert got_labels.tobytes() == want_labels.tobytes()


def test_task_minibatch():
    ds = make_task_dataset(seed=2, num_examples=100, num_labels=2, vocab_size=16, seq_len=10)
    a = task_minibatch(ds, task_minibatch_indices(ds, seed=9, batch=8))
    b = task_minibatch(ds, task_minibatch_indices(ds, seed=9, batch=8))
    np.testing.assert_array_equal(a.input_ids, b.input_ids)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.input_ids.shape == (8, 10)


def test_task_minibatch_rows_unchanged():
    # pinned: a changed sampler stream would change every seeded task stage
    d = make_task_dataset(7, 1000, 3)
    want = [695, 754, 902, 47, 54, 497, 328, 451, 556, 543, 812, 194, 152, 293, 869, 917]
    seed = 1_000_003 * 4 + 17
    np.testing.assert_array_equal(task_minibatch_indices(d, seed, 16), want)
    b = task_minibatch(d, want)
    np.testing.assert_array_equal(b.input_ids, d.train.input_ids[want])
    np.testing.assert_array_equal(b.labels, d.train.labels[want])
    np.testing.assert_array_equal(b.attention_mask, d.train.attention_mask[want])
