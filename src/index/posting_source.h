// PostingSource: the interface the coarse search phase consumes.
//
// Two implementations exist: InvertedIndex (everything resident in
// memory) and MmapIndex (directory in memory, postings decoded
// zero-copy out of a read-only mapping, no lock) — the configuration
// the CAFE system actually shipped, where the index is much larger than
// main memory and "index-based approaches do not rely on the entire
// collection fitting into main memory". Tools select between them with
// --index-mode=memory|mmap.

#ifndef CAFE_INDEX_POSTING_SOURCE_H_
#define CAFE_INDEX_POSTING_SOURCE_H_

#include <cstdint>
#include <functional>

#include "index/postings.h"
#include "index/vocabulary.h"

namespace cafe {

struct IndexOptions;

/// Callback invoked once per posting entry:
/// (doc, tf, positions, npos); positions is nullptr at document
/// granularity.
using PostingCallback =
    std::function<void(uint32_t, uint32_t, const uint32_t*, uint32_t)>;

class PostingSource {
 public:
  virtual ~PostingSource() = default;

  virtual const IndexOptions& options() const = 0;
  virtual uint32_t num_docs() const = 0;

  /// Directory entry for `term`; nullptr if unindexed.
  virtual const TermEntry* FindTerm(uint32_t term) const = 0;

  /// Streams the postings of `term` through `fn`; no-op for unindexed
  /// terms. Implementations must be safe for concurrent calls from
  /// multiple search threads — the parallel query layer (BatchSearch)
  /// issues coarse-phase scans from every worker. Both implementations
  /// decode with thread-local scratch over immutable bytes (no lock
  /// anywhere).
  virtual void ScanPostings(uint32_t term, const PostingCallback& fn)
      const = 0;
};

}  // namespace cafe

#endif  // CAFE_INDEX_POSTING_SOURCE_H_
