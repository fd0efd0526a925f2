// IndexReader: an index saved to disk and opened through either read
// path (memory or mmap) serves the same metadata and postings as the
// index it was built from, and answers searches identically.

#include "index/index_reader.h"

#include <gtest/gtest.h>

#include <tuple>

#include "collection/collection.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/env.h"

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
  copt.seed = 77;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 3;
  wopt.query_length = 150;
  wopt.homologs_per_query = 3;
  wopt.seed = 78;
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
  f.path = TempDir() + "/cafe_index_reader_test.idx";
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

class IndexReaderTest : public ::testing::TestWithParam<IndexMode> {};

TEST_P(IndexReaderTest, OpenParsesMetadata) {
  Fixture f = MakeFixture();
  Result<IndexReader> reader = IndexReader::Open(f.path, GetParam());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const PostingSource& source = *reader->source();
  EXPECT_EQ(source.num_docs(), f.index.num_docs());
  EXPECT_EQ(source.options().interval_length,
            f.index.options().interval_length);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST_P(IndexReaderTest, EveryTermMatchesBuiltIndex) {
  Fixture f = MakeFixture();
  Result<IndexReader> reader = IndexReader::Open(f.path, GetParam());
  ASSERT_TRUE(reader.ok());
  size_t checked = 0;
  f.index.directory().ForEachTerm([&](uint32_t term, const TermEntry&) {
    EXPECT_EQ(Collect(*reader->source(), term), Collect(f.index, term))
        << "term " << term;
    ++checked;
  });
  EXPECT_GT(checked, 100u);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST_P(IndexReaderTest, DocumentGranularityMatches) {
  Fixture f = MakeFixture(IndexGranularity::kDocument);
  Result<IndexReader> reader = IndexReader::Open(f.path, GetParam());
  ASSERT_TRUE(reader.ok());
  f.index.directory().ForEachTerm([&](uint32_t term, const TermEntry&) {
    EXPECT_EQ(Collect(*reader->source(), term), Collect(f.index, term));
  });
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST_P(IndexReaderTest, UnknownTermIsNoop) {
  Fixture f = MakeFixture();
  Result<IndexReader> reader = IndexReader::Open(f.path, GetParam());
  ASSERT_TRUE(reader.ok());
  uint32_t missing = 0;
  while (f.index.FindTerm(missing) != nullptr) ++missing;
  EXPECT_TRUE(Collect(*reader->source(), missing).empty());
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST_P(IndexReaderTest, PartitionedSearchMatchesBuiltIndex) {
  Fixture f = MakeFixture();
  Result<IndexReader> reader = IndexReader::Open(f.path, GetParam());
  ASSERT_TRUE(reader.ok());

  PartitionedSearch built_engine(&f.collection, &f.index);
  PartitionedSearch read_engine(&f.collection, reader->source());
  SearchOptions options;
  options.fine_candidates = 20;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> want = built_engine.Search(q.sequence, options);
    Result<SearchResult> got = read_engine.Search(q.sequence, options);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->hits.size(), got->hits.size());
    for (size_t i = 0; i < want->hits.size(); ++i) {
      EXPECT_EQ(want->hits[i].seq_id, got->hits[i].seq_id);
      EXPECT_EQ(want->hits[i].score, got->hits[i].score);
    }
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST_P(IndexReaderTest, MissingFileFails) {
  EXPECT_TRUE(IndexReader::Open("/nonexistent/cafe.idx", GetParam())
                  .status()
                  .IsIOError());
}

TEST_P(IndexReaderTest, CorruptFileFails) {
  Fixture f = MakeFixture();
  std::string data;
  ASSERT_TRUE(ReadFileToString(f.path, &data).ok());
  data[data.size() / 2] ^= 0x20;
  std::string bad_path = TempDir() + "/cafe_index_reader_bad.idx";
  ASSERT_TRUE(WriteStringToFile(bad_path, data).ok());
  EXPECT_TRUE(IndexReader::Open(bad_path, GetParam()).status().IsCorruption());
  ASSERT_TRUE(RemoveFile(f.path).ok());
  ASSERT_TRUE(RemoveFile(bad_path).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IndexReaderTest,
    ::testing::Values(IndexMode::kMemory, IndexMode::kMmap),
    [](const ::testing::TestParamInfo<IndexMode>& param_info) {
      return std::string(IndexModeName(param_info.param));
    });

}  // namespace
}  // namespace cafe
