// MmapIndex: a zero-copy, lock-free disk-resident posting source.
//
// The index file is mapped read-only once at Open; the directory is
// parsed out of the mapping, the file's CRC is verified with one
// sequential sweep (which doubles as the page first-touch pass), and
// from then on ScanPostings decodes each term's list *directly from the
// mapped bytes* — no copy, no lock, no warmup, no per-query allocation.
// The kernel page cache is the only cache: shared across processes,
// sized by available memory, and evicted under pressure, so indexes
// larger than RAM serve correctly with the kernel paging postings in on
// demand (the mapping is advised MADV_RANDOM after the sweep so point
// lookups do not drag readahead behind them).
//
// Reentrancy contract: the object is immutable after Open and the
// mapped bytes are read-only, so ScanPostings and every other const
// query method are safe for unlimited concurrent callers with no
// synchronization whatsoever. AttachMetrics is the one mutating call;
// make it before serving traffic.
//
// Failure model: Open returns Status for every malformed input
// (missing file, truncation, bit-rot caught by the CRC) — never a
// CHECK. After a successful Open the file must not shrink on disk;
// like every mmap consumer, a concurrent truncation turns page loads
// into SIGBUS. Replace-by-rename (the only update pattern the repo
// uses) is safe: the mapping pins the old inode.

#ifndef CAFE_INDEX_MMAP_INDEX_H_
#define CAFE_INDEX_MMAP_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"
#include "index/posting_source.h"
#include "obs/metrics.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace cafe {

class MmapIndex final : public PostingSource {
 public:
  /// Maps an index file produced by InvertedIndex::Save, verifies its
  /// CRC with one sequential sweep of the mapping, and parses the
  /// directory. Steady-state heap holds only the directory — postings
  /// stay in the mapping.
  [[nodiscard]] static Result<std::unique_ptr<MmapIndex>> Open(
      const std::string& path);

  const IndexOptions& options() const override { return options_; }
  uint32_t num_docs() const override {
    return static_cast<uint32_t>(doc_lengths_.size());
  }
  const TermEntry* FindTerm(uint32_t term) const override {
    return directory_.Find(term);
  }
  void ScanPostings(uint32_t term,
                    const PostingCallback& fn) const override;

  const std::vector<uint32_t>& doc_lengths() const { return doc_lengths_; }
  const IndexStats& stats() const { return stats_; }

  /// Mirrors read-path activity into `registry` under the
  /// `mmap_index.*` names (docs/OBSERVABILITY.md). On first attach the
  /// open-time facts are recorded too: one `mmap_index.maps`,
  /// `mmap_index.bytes_mapped`, and the CRC-sweep duration into
  /// `mmap_index.first_touch_micros` (every page of the file is
  /// faulted in by that sweep, so its duration is the page-fault cost
  /// proxy). The registry must outlive this index; pass nullptr to
  /// detach. Not thread-safe against in-flight queries — attach before
  /// serving. Detached (the default), the hot path pays one null check.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Heap-resident bytes: directory plus (once metrics have been
  /// attached) the per-term length table. The mapping itself is file-
  /// backed page cache, not heap, and is deliberately excluded — it is
  /// reclaimable at any time and shared with other readers of the file.
  uint64_t MemoryBytes() const;

  /// Size of the underlying mapping in bytes (the whole index file).
  uint64_t MappedBytes() const { return file_.size(); }

 private:
  MmapIndex() : directory_(4) {}

  /// Compressed bit length of `entry`'s list (metrics bookkeeping).
  uint64_t ListBits(uint32_t term, const TermEntry& entry) const;

  IndexOptions options_;
  std::vector<uint32_t> doc_lengths_;
  TermDirectory directory_;
  IndexStats stats_;

  MmapFile file_;
  const uint8_t* blob_ = nullptr;  // into file_'s mapping
  uint64_t blob_bytes_ = 0;
  uint64_t first_touch_micros_ = 0;  // duration of the open-time sweep

  // Per-term compressed list length in bits, derived from consecutive
  // directory offsets. Built on first AttachMetrics — bytes-decoded
  // accounting is the only consumer, so a detached index never pays
  // the heap for it.
  std::unordered_map<uint32_t, uint64_t> bit_lengths_;

  // Registry mirror (see AttachMetrics). Written only by AttachMetrics;
  // read with a null check on the hot path.
  obs::Counter* metric_lists_ = nullptr;
  obs::Counter* metric_bytes_decoded_ = nullptr;
  bool open_facts_recorded_ = false;
};

}  // namespace cafe

#endif  // CAFE_INDEX_MMAP_INDEX_H_
