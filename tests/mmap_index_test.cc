#include "index/mmap_index.h"

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "collection/collection.h"
#include "index/index_reader.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/env.h"
#include "util/mmap_file.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::string path;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture(IndexGranularity granularity =
                        IndexGranularity::kPositional) {
  sim::CollectionOptions copt;
  copt.num_sequences = 50;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.wildcard_rate = 0.001;
  copt.seed = 97;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 3;
  wopt.query_length = 150;
  wopt.homologs_per_query = 3;
  wopt.seed = 98;
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok());

  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = granularity;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  EXPECT_TRUE(index.ok());

  Fixture f;
  f.collection = std::move(wl->collection);
  f.index = std::move(*index);
  f.queries = std::move(wl->queries);
  f.path = TempDir() + "/cafe_mmap_index_test.idx";
  EXPECT_TRUE(f.index.Save(f.path).ok());
  return f;
}

using PostingTuple = std::tuple<uint32_t, uint32_t, std::vector<uint32_t>>;

std::vector<PostingTuple> Collect(const PostingSource& source,
                                  uint32_t term) {
  std::vector<PostingTuple> out;
  source.ScanPostings(term, [&](uint32_t doc, uint32_t tf,
                                const uint32_t* pos, uint32_t npos) {
    std::vector<uint32_t> p;
    if (pos != nullptr) p.assign(pos, pos + npos);
    out.emplace_back(doc, tf, std::move(p));
  });
  return out;
}

TEST(MmapFileTest, MissingFileFails) {
  EXPECT_TRUE(MmapFile::Open("/nonexistent/cafe.bin").status().IsIOError());
}

TEST(MmapFileTest, MapsFileContents) {
  std::string path = TempDir() + "/cafe_mmap_file_test.bin";
  ASSERT_TRUE(WriteStringToFile(path, "mapped bytes").ok());
  Result<MmapFile> file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->view(), "mapped bytes");
  EXPECT_EQ(file->size(), 12u);
  // Hints are best-effort and never fail, whatever the range.
  file->Advise(MmapFile::Advice::kSequential);
  file->Advise(MmapFile::Advice::kRandom, 4, 4);
  file->Advise(MmapFile::Advice::kWillNeed, 1 << 20, 8);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(MmapFileTest, EmptyFileMapsEmpty) {
  std::string path = TempDir() + "/cafe_mmap_file_empty.bin";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  Result<MmapFile> file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 0u);
  file->Advise(MmapFile::Advice::kSequential);  // no-op, no crash
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(MmapFileTest, MoveTransfersOwnership) {
  std::string path = TempDir() + "/cafe_mmap_file_move.bin";
  ASSERT_TRUE(WriteStringToFile(path, "abc").ok());
  Result<MmapFile> file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  MmapFile moved = std::move(*file);
  EXPECT_EQ(moved.view(), "abc");
  EXPECT_EQ(file->size(), 0u);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(MmapIndexTest, OpenParsesMetadata) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->num_docs(), f.index.num_docs());
  EXPECT_EQ((*mapped)->options().interval_length,
            f.index.options().interval_length);
  EXPECT_EQ((*mapped)->doc_lengths(), f.index.doc_lengths());
  EXPECT_EQ((*mapped)->stats().num_terms, f.index.stats().num_terms);
  EXPECT_EQ((*mapped)->stats().total_postings,
            f.index.stats().total_postings);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

// The tentpole contract: every term in the vocabulary decodes to the
// same postings through the mmap path, the memory path loaded from the
// same file (the reference oracle) and the index as built.
TEST(MmapIndexTest, FullVocabularyMatchesMemory) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());
  Result<InvertedIndex> loaded = InvertedIndex::Load(f.path);
  ASSERT_TRUE(loaded.ok());
  size_t checked = 0;
  f.index.directory().ForEachTerm([&](uint32_t term, const TermEntry&) {
    std::vector<PostingTuple> want = Collect(f.index, term);
    EXPECT_EQ(Collect(**mapped, term), want) << "mmap term " << term;
    EXPECT_EQ(Collect(*loaded, term), want) << "memory term " << term;
    ++checked;
  });
  EXPECT_GT(checked, 100u);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, DocumentGranularityMatches) {
  Fixture f = MakeFixture(IndexGranularity::kDocument);
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());
  f.index.directory().ForEachTerm([&](uint32_t term, const TermEntry&) {
    EXPECT_EQ(Collect(**mapped, term), Collect(f.index, term));
  });
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, UnknownTermIsNoop) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());
  uint32_t missing = 0;
  while (f.index.FindTerm(missing) != nullptr) ++missing;
  EXPECT_TRUE(Collect(**mapped, missing).empty());
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, PartitionedSearchOverMmapMatchesMemory) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());

  PartitionedSearch mem_engine(&f.collection, &f.index);
  PartitionedSearch mmap_engine(&f.collection, mapped->get());
  SearchOptions options;
  options.fine_candidates = 20;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> rm = mem_engine.Search(q.sequence, options);
    Result<SearchResult> rx = mmap_engine.Search(q.sequence, options);
    ASSERT_TRUE(rm.ok() && rx.ok());
    ASSERT_EQ(rm->hits.size(), rx->hits.size());
    for (size_t i = 0; i < rm->hits.size(); ++i) {
      EXPECT_EQ(rm->hits[i].seq_id, rx->hits[i].seq_id);
      EXPECT_EQ(rm->hits[i].score, rx->hits[i].score);
    }
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

// Lock-free reader contract under TSan: many threads decode
// overlapping term sets concurrently with no synchronization, and
// every one sees exactly the reference postings.
TEST(MmapIndexTest, ConcurrentReadersSeeIdenticalPostings) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());

  std::vector<uint32_t> terms;
  f.index.directory().ForEachTerm([&](uint32_t t, const TermEntry&) {
    if (terms.size() < 64) terms.push_back(t);
  });
  std::vector<PostingTuple> want;
  for (uint32_t t : terms) {
    std::vector<PostingTuple> one = Collect(f.index, t);
    want.insert(want.end(), one.begin(), one.end());
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    readers.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        std::vector<PostingTuple> got;
        for (uint32_t t : terms) {
          std::vector<PostingTuple> one = Collect(**mapped, t);
          got.insert(got.end(), one.begin(), one.end());
        }
        if (got != want) ++mismatches[i];
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "reader " << i;
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, HeapFootprintExcludesMapping) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());
  // The mapping covers the whole file; the heap holds only the
  // directory (the length table appears once metrics attach).
  EXPECT_GT((*mapped)->MappedBytes(), f.index.stats().postings_bits / 8);
  EXPECT_LE((*mapped)->MemoryBytes(),
            f.index.stats().directory_bytes + 4096);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, MetricsMirrorCountsScans) {
  Fixture f = MakeFixture();
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(f.path);
  ASSERT_TRUE(mapped.ok());
  obs::MetricsRegistry registry;
  (*mapped)->AttachMetrics(&registry);
  uint32_t term = 0;
  f.index.directory().ForEachTerm([&](uint32_t t, const TermEntry&) {
    if (term == 0) term = t;
  });
  Collect(**mapped, term);
  Collect(**mapped, term);
  obs::MetricsSnapshot snap = registry.SnapshotData();
  EXPECT_EQ(snap.counters["mmap_index.lists_scanned"], 2u);
  EXPECT_GT(snap.counters["mmap_index.bytes_decoded"], 0u);
  EXPECT_EQ(snap.counters["mmap_index.maps"], 1u);
  EXPECT_EQ(snap.counters["mmap_index.bytes_mapped"],
            (*mapped)->MappedBytes());
  EXPECT_EQ(snap.histograms["mmap_index.first_touch_micros"].count, 1u);
  // Re-attaching must not double-count the open-time facts.
  (*mapped)->AttachMetrics(&registry);
  snap = registry.SnapshotData();
  EXPECT_EQ(snap.counters["mmap_index.maps"], 1u);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, IndexReaderSelectsEachMode) {
  Fixture f = MakeFixture();
  for (IndexMode mode : {IndexMode::kMemory, IndexMode::kMmap}) {
    Result<IndexReader> reader = IndexReader::Open(f.path, mode);
    ASSERT_TRUE(reader.ok()) << IndexModeName(mode);
    EXPECT_EQ(reader->mode(), mode);
    EXPECT_EQ(reader->source()->num_docs(), f.index.num_docs());
  }
  EXPECT_TRUE(ParseIndexMode("mmap").ok());
  // The retired block-cache read path and its legacy alias.
  EXPECT_TRUE(ParseIndexMode("cached").status().IsInvalidArgument());
  EXPECT_TRUE(ParseIndexMode("disk").status().IsInvalidArgument());
  EXPECT_TRUE(ParseIndexMode("sideways").status().IsInvalidArgument());
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(MmapIndexTest, MissingFileFails) {
  EXPECT_TRUE(MmapIndex::Open("/nonexistent/cafe.idx").status().IsIOError());
}

// Malformed inputs are rejected with Status — never a CHECK — at every
// truncation point: inside the header, inside the directory, inside
// the blob, and one byte short of the checksum.
TEST(MmapIndexTest, TruncatedFileFails) {
  Fixture f = MakeFixture();
  std::string data;
  ASSERT_TRUE(ReadFileToString(f.path, &data).ok());
  std::string bad_path = TempDir() + "/cafe_mmap_index_trunc.idx";
  for (size_t keep :
       {size_t{3}, size_t{16}, size_t{40}, data.size() / 2,
        data.size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(bad_path, data.substr(0, keep)).ok());
    Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(bad_path);
    EXPECT_TRUE(mapped.status().IsCorruption()) << "kept " << keep;
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
  ASSERT_TRUE(RemoveFile(bad_path).ok());
}

TEST(MmapIndexTest, CorruptFileFails) {
  Fixture f = MakeFixture();
  std::string data;
  ASSERT_TRUE(ReadFileToString(f.path, &data).ok());
  std::string bad_path = TempDir() + "/cafe_mmap_index_bad.idx";
  // A flipped bit anywhere — header, directory, blob — must trip the
  // CRC sweep before any postings decode touches the bytes.
  for (size_t at : {size_t{9}, data.size() / 2, data.size() - 8}) {
    std::string bad = data;
    bad[at] ^= 0x20;
    ASSERT_TRUE(WriteStringToFile(bad_path, bad).ok());
    EXPECT_TRUE(MmapIndex::Open(bad_path).status().IsCorruption())
        << "flip at " << at;
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
  ASSERT_TRUE(RemoveFile(bad_path).ok());
}

}  // namespace
}  // namespace cafe
