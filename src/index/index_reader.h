// IndexReader: one entry point for "open this index file and give me a
// PostingSource", switchable between the two read paths:
//
//   kMemory  InvertedIndex::Load — the whole postings blob copied to
//            heap; fastest steady state, heap grows with the index. The
//            byte-identity oracle for the mmap path.
//   kMmap    MmapIndex::Open — directory on heap, postings decoded
//            zero-copy out of a read-only mapping; no lock, no warmup,
//            serves indexes larger than RAM.
//
// cafe_cli and cafe_serve expose the choice as --index-mode=memory|mmap.

#ifndef CAFE_INDEX_INDEX_READER_H_
#define CAFE_INDEX_INDEX_READER_H_

#include <memory>
#include <string>

#include "index/inverted_index.h"
#include "index/mmap_index.h"
#include "index/posting_source.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace cafe {

enum class IndexMode {
  kMemory,
  kMmap,
};

/// Parses "memory" (or "mem") | "mmap"; InvalidArgument otherwise.
[[nodiscard]] Result<IndexMode> ParseIndexMode(const std::string& name);

const char* IndexModeName(IndexMode mode);

/// An opened index: owns whichever implementation the mode selected
/// and exposes it through the PostingSource interface. Move-only;
/// `source()` stays valid for the lifetime of this object.
class IndexReader {
 public:
  [[nodiscard]] static Result<IndexReader> Open(const std::string& path,
                                                IndexMode mode);

  const PostingSource* source() const { return source_; }
  IndexMode mode() const { return mode_; }

  /// Forwards to the mmap path's metric mirror (mmap_index.*); the
  /// memory path has none.
  void AttachMetrics(obs::MetricsRegistry* registry);

  IndexReader(IndexReader&& other) noexcept { MoveFrom(std::move(other)); }
  IndexReader& operator=(IndexReader&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }
  IndexReader(const IndexReader&) = delete;
  IndexReader& operator=(const IndexReader&) = delete;

 private:
  IndexReader() = default;
  void MoveFrom(IndexReader&& other);

  IndexMode mode_ = IndexMode::kMemory;
  std::unique_ptr<InvertedIndex> memory_;
  std::unique_ptr<MmapIndex> mapped_;
  const PostingSource* source_ = nullptr;
};

}  // namespace cafe

#endif  // CAFE_INDEX_INDEX_READER_H_
