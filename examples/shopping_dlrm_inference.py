#!/usr/bin/env python3
"""Shopping-recommendation DLRM inference over the MaxEmbed store.

End-to-end Figure-1 flow: an Alibaba-iFashion-shaped trace drives the
embedding layer of a DLRM served by MaxEmbed — every sparse lookup goes
through the DRAM cache, the one-pass page selector, and the byte-accurate
simulated SSD pages, and returns the *actual* float32 vectors that are
sum-pooled and scored.

Run:  python examples/shopping_dlrm_inference.py
"""

import numpy as np

from repro import MaxEmbedConfig, make_trace
from repro.core import MaxEmbedStore

rng = np.random.default_rng(0)

# 1. Workload + offline phase.
trace, preset = make_trace("alibaba_ifashion", scale="small", seed=11)
history, live = trace.split(0.5)
config = MaxEmbedConfig(replication_ratio=0.2, cache_ratio=0.1)

# 2. A trained embedding table (random stand-in) materialized onto the
#    simulated SSD pages according to the MaxEmbed layout.
table = rng.normal(scale=0.1, size=(trace.num_keys, 64)).astype(np.float32)
store = MaxEmbedStore.build(history, config, table=table)
print(f"store: {store.layout.num_pages} pages, "
      f"{store.storage_overhead():.1%} extra space, "
      f"{store.memory_overhead_entries():,} DRAM index entries")

# 3. Figure 1: each live query is one user's candidate-scoring request.
#    Look its sparse ids up through the store, sum-pool the vectors, and
#    score the pooled vector with a logistic head (random stand-in weights).
weights = rng.normal(scale=0.1, size=64).astype(np.float32)
batch = list(live)[:32]
served = [store.lookup(query) for query in batch]
pooled = np.stack([np.sum(list(vectors.values()), axis=0) for vectors in served])
probs = 1.0 / (1.0 + np.exp(-(pooled @ weights)))
print(f"\nscored {len(batch)} requests; "
      f"click-probability range [{probs.min():.3f}, {probs.max():.3f}]")

top = np.argsort(probs)[::-1][:5]
print("top-5 ranked requests (request index, probability, #items):")
for index in top:
    print(f"  #{index:<3d} p={probs[index]:.4f} items={len(served[index])}")

# 4. Verify the served vectors are bit-exact against the table.
for vectors in served:
    for key, vector in vectors.items():
        assert np.array_equal(vector, table[key]), "served vector diverged!"
print("\nvector integrity check passed: SSD-served embeddings are "
      "bit-exact against the source table")
print(f"cache hit rate so far: {store.engine.cache.stats.hit_rate():.1%}")
