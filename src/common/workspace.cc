#include "common/workspace.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace phasorwatch {
namespace {

// First chunk sized for a 30-bus detect pass so small systems never
// grow past one chunk; doubling from there reaches 118-bus scale in a
// few warm-up allocations.
constexpr size_t kInitialChunkDoubles = 4096;

}  // namespace

double* Workspace::Alloc(size_t n) {
  if (n == 0) {
    // A distinct non-null pointer is not required; hand back the
    // current cursor without bumping.
    static double dummy = 0.0;
    return &dummy;
  }
  if (chunks_.empty()) AddChunk(n);
  // Advance through already-owned chunks (rewound frames leave later
  // chunks empty) before growing the arena.
  while (chunks_[cur_].cap - chunks_[cur_].used < n) {
    if (cur_ + 1 < chunks_.size()) {
      ++cur_;
      PW_CHECK_EQ(chunks_[cur_].used, 0u);
    } else {
      AddChunk(n);
    }
  }
  Chunk& c = chunks_[cur_];
  double* p = c.data.get() + c.used;
  c.used += n;
  std::fill(p, p + n, 0.0);
  return p;
}

void Workspace::Reset() {
  ++epoch_;
  if (chunks_.size() > 1) {
    // Coalesce: one chunk of the full footprint, so the warmed steady
    // state bumps through contiguous memory and never allocates again.
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.cap;
    chunks_.clear();
    cur_ = 0;
    AddChunk(total);
    chunks_[0].used = 0;
    return;
  }
  for (Chunk& c : chunks_) c.used = 0;
  cur_ = 0;
}

size_t Workspace::used() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.used;
  return total;
}

size_t Workspace::capacity_bytes() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.cap * sizeof(double);
  return total;
}

Workspace& Workspace::PerThread() {
  thread_local Workspace ws;
  return ws;
}

void Workspace::Rewind(size_t chunk, size_t used) {
  PW_CHECK_LT(chunk, chunks_.empty() ? 1 : chunks_.size());
  for (size_t i = chunk + 1; i < chunks_.size(); ++i) chunks_[i].used = 0;
  if (!chunks_.empty()) chunks_[chunk].used = used;
  cur_ = chunk;
}

void Workspace::AddChunk(size_t min_doubles) {
  size_t cap = chunks_.empty() ? kInitialChunkDoubles
                               : chunks_.back().cap * 2;
  cap = std::max(cap, min_doubles);
  Chunk c;
  c.data = std::make_unique<double[]>(cap);
  c.cap = cap;
  chunks_.push_back(std::move(c));
  cur_ = chunks_.size() - 1;
  // Largest per-thread arena footprint seen since the last registry
  // reset; Gauge::Max keeps the race between arenas lossless.
  PW_OBS_GAUGE_MAX("workspace.bytes_high_water", capacity_bytes());
}

}  // namespace phasorwatch
