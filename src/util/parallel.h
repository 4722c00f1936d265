// The chunked-substream map-reduce shared by the sampling estimators.
//
// This header is where the determinism contract lives in code: the chunk
// grid is derived from (total, chunk_size) alone — never from the thread
// count — chunk c draws from base.Split(c), and the per-chunk results are
// reduced in chunk order. Estimators that keep their own loop shapes
// (annealing phases, Karp–Luby) follow the same rules by hand on top of
// ThreadPool::RunGrid.

#ifndef MUDB_SRC_UTIL_PARALLEL_H_
#define MUDB_SRC_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace mudb::util {

/// Carves [0, total) into fixed-size chunks and returns
///     init + Σ_c fn(count_c, base.Split(c))
/// reduced in chunk order. Runs on `pool` when non-null, inline otherwise;
/// the result is bit-identical either way and for every pool size. fn is
/// T(int64_t count, Rng&) and must be safe to call concurrently.
template <typename T, typename Fn>
T ReduceSampleChunks(ThreadPool* pool, int64_t total, int64_t chunk_size,
                     const Rng& base, T init, Fn&& fn) {
  const int64_t chunks = (total + chunk_size - 1) / chunk_size;
  std::vector<T> partial(static_cast<size_t>(chunks));
  auto run_chunk = [&](int64_t c) {
    Rng chunk_rng = base.Split(static_cast<uint64_t>(c));
    int64_t count = std::min(chunk_size, total - c * chunk_size);
    partial[c] = fn(count, chunk_rng);
  };
  ThreadPool::RunGrid(pool, chunks, run_chunk);
  T acc = init;
  for (int64_t c = 0; c < chunks; ++c) acc += partial[c];
  return acc;
}

}  // namespace mudb::util

#endif  // MUDB_SRC_UTIL_PARALLEL_H_
