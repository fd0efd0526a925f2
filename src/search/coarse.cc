#include "search/coarse.h"

#include <algorithm>

#include "index/interval.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/span.h"
#include "util/timer.h"

namespace cafe {
namespace {

// Counts one query term into the funnel: its interval occurrences, and
// whether it has a postings list. Every directory entry carries at
// least one posting, so a scan that delivered none means the term has
// no list (stopped at build time, or it never occurred).
void TraceTerm(size_t occurrences, bool delivered, obs::SearchTrace* trace) {
  trace->intervals_extracted += occurrences;
  if (delivered) {
    ++trace->postings_lists_touched;
  } else {
    ++trace->terms_unindexed;
  }
}

// Keeps the best `limit` of `all` (score descending, then doc
// ascending), sorted. `score` reads an element's score.
template <typename T, typename Score>
void SelectTop(std::vector<T>* all, uint32_t limit, const Score& score) {
  auto better = [&](const T& a, const T& b) {
    if (score(a) != score(b)) return score(a) > score(b);
    return a.doc < b.doc;
  };
  if (all->size() > limit) {
    std::nth_element(all->begin(), all->begin() + limit, all->end(), better);
    all->resize(limit);
  }
  std::sort(all->begin(), all->end(), better);
}

// One interval hit as gathered: the sequence and the seed match.
struct DocAnchor {
  uint32_t doc;
  SeedAnchor anchor;
};

// A sequence's best (frame, frame + 1) window: entries [begin, end) of
// WindowScratch::order. The sequence has `total` anchors in all frames.
struct DocWindow {
  uint32_t doc;
  uint32_t frame;
  uint32_t begin;
  uint32_t end;
  uint32_t total;
};

// Per-thread scratch of one query's windowing, kept across queries so
// a steady query load allocates nothing. Concurrent queries (the
// BatchSearch fan-out, the server's workers) each use their own.
// Anchor indexes are 32-bit: 2^32 anchors would need 48 GiB here.
struct WindowScratch {
  // Gathered anchors, in postings scan order.
  std::vector<DocAnchor> anchors;
  // Counting-sort cursor per sequence.
  std::vector<uint32_t> cursor;
  // frame << 32 | index into `anchors`, sorted by (doc, frame).
  std::vector<uint64_t> order;
  std::vector<DocWindow> windows;
};

WindowScratch& ThreadWindowScratch() {
  static thread_local WindowScratch scratch;
  scratch.anchors.clear();
  scratch.windows.clear();
  return scratch;
}

// Appends one anchor per (subject position, query position) pair of
// every posting of the query's terms whose doc `keep` accepts. When
// `trace` is non-null, adds the per-term funnel and the postings
// decoded to it.
template <typename Keep>
void GatherAnchors(const PostingSource& index, const TermPositions& terms,
                   const Keep& keep, std::vector<DocAnchor>* anchors,
                   obs::SearchTrace* trace) {
  uint64_t postings = 0;
  for (const auto& [term, qpositions] : terms) {
    const uint64_t before = postings;
    index.ScanPostings(
        term, [&](uint32_t doc, uint32_t /*tf*/, const uint32_t* positions,
                  uint32_t npos) {
          ++postings;
          if (!keep(doc)) return;
          for (uint32_t pi = 0; pi < npos; ++pi) {
            for (uint32_t qpos : qpositions) {
              anchors->push_back(DocAnchor{doc, {qpos, positions[pi]}});
            }
          }
        });
    if (trace != nullptr) {
      TraceTerm(qpositions.size(), postings > before, trace);
    }
  }
  if (trace != nullptr) trace->postings_decoded += postings;
}

// The best (frame, frame + 1) window among entries [begin, end) of
// `order`, one sequence's anchors sorted by frame. Frames are visited
// in ascending order and only a strictly larger count replaces the
// best, so ties go to the smallest frame. A window starts only at a
// frame that holds anchors; (f - 1, f) with f - 1 empty never beats
// (f, f + 1).
DocWindow BestWindow(uint32_t doc, const std::vector<uint64_t>& order,
                     uint32_t begin, uint32_t end) {
  auto frame = [&](uint32_t k) { return order[k] >> 32; };
  auto run_end = [&](uint32_t k) {
    uint32_t j = k + 1;
    while (j < end && frame(j) == frame(k)) ++j;
    return j;
  };
  DocWindow best{doc, 0, begin, begin, end - begin};
  for (uint32_t i = begin, j = run_end(begin); i < end;) {
    // [i, j) is one frame; its right neighbour, if any, starts at j.
    const bool has_right = j < end && frame(j) == frame(i) + 1;
    const uint32_t next_end = has_right ? run_end(j) : j;
    if (next_end - i > best.end - best.begin) {
      best.frame = static_cast<uint32_t>(frame(i));
      best.begin = i;
      best.end = next_end;
    }
    i = j;
    if (i < end) j = has_right ? next_end : run_end(i);
  }
  return best;
}

// Sorts the gathered anchors by (doc, frame), where
// frame = (spos - qpos + qlen) / frame_width partitions the diagonal
// range [-qlen, doc_len) of the sequence, and appends each sequence's
// best window to `windows`, in doc order. A counting sort groups the
// anchors by doc; each sequence's few anchors are then sorted by frame.
void SortIntoWindows(uint32_t num_docs, int64_t qlen, uint32_t frame_width,
                     WindowScratch* s) {
  const std::vector<DocAnchor>& anchors = s->anchors;
  const auto n = static_cast<uint32_t>(anchors.size());
  s->cursor.assign(num_docs, 0);
  for (const DocAnchor& a : anchors) ++s->cursor[a.doc];
  uint32_t sum = 0;
  for (uint32_t& c : s->cursor) {
    const uint32_t count = c;
    c = sum;
    sum += count;
  }
  s->order.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const SeedAnchor& a = anchors[i].anchor;
    const uint64_t frame =
        static_cast<uint64_t>(static_cast<int64_t>(a.spos) -
                              static_cast<int64_t>(a.qpos) + qlen) /
        frame_width;
    s->order[s->cursor[anchors[i].doc]++] = (frame << 32) | i;
  }
  // Each cursor now holds the end of its sequence's range.
  uint32_t begin = 0;
  for (uint32_t doc = 0; doc < num_docs; ++doc) {
    const uint32_t end = s->cursor[doc];
    if (end == begin) continue;
    std::sort(s->order.begin() + begin, s->order.begin() + end);
    s->windows.push_back(BestWindow(doc, s->order, begin, end));
    begin = end;
  }
}

// The window of `doc` in `windows` (doc order), or nullptr.
const DocWindow* FindWindow(const std::vector<DocWindow>& windows,
                            uint32_t doc) {
  auto it = std::lower_bound(
      windows.begin(), windows.end(), doc,
      [](const DocWindow& w, uint32_t d) { return w.doc < d; });
  return it != windows.end() && it->doc == doc ? &*it : nullptr;
}

void CarryWindow(const WindowScratch& s, const DocWindow& window,
                 CoarseCandidate* cand) {
  cand->window_anchors.clear();
  cand->window_anchors.reserve(window.end - window.begin);
  for (uint32_t k = window.begin; k < window.end; ++k) {
    cand->window_anchors.push_back(
        s.anchors[s.order[k] & 0xFFFFFFFFu].anchor);
  }
  cand->doc_anchors = window.total;
}

}  // namespace

TermPositions QueryTermPositions(std::string_view query,
                                 const IndexOptions& options) {
  TermPositions terms;
  Result<SeedExtractor> extractor = SeedExtractor::Create(
      options.interval_length, options.spaced_seed);
  if (!extractor.ok()) return terms;  // validated at build/load time
  extractor->ForEach(query, /*stride=*/1,
                     [&](uint32_t pos, uint32_t term) {
                       terms[term].push_back(pos);
                     });
  return terms;
}

std::vector<CoarseCandidate> CoarseRanker::Rank(
    std::string_view query, CoarseRankMode mode, uint32_t limit,
    uint32_t frame_width, obs::SearchTrace* trace,
    obs::SpanRecorder* spans) const {
  WallTimer timer;
  obs::Span rank_span(spans, "coarse.rank");
  std::vector<CoarseCandidate> out;
  if (mode == CoarseRankMode::kDiagonal &&
      index_->options().granularity == IndexGranularity::kPositional) {
    out = RankDiagonal(query, limit, frame_width, trace, spans);
  } else {
    out = RankHitCount(query, limit, trace, spans);
  }
  trace->candidates_kept += out.size();
  trace->coarse_micros += timer.Micros();
  return out;
}

std::vector<CoarseCandidate> CoarseRanker::RankHitCount(
    std::string_view query, uint32_t limit, obs::SearchTrace* trace,
    obs::SpanRecorder* spans) const {
  auto terms = QueryTermPositions(query, index_->options());
  trace->terms_distinct += terms.size();

  std::vector<double> acc(index_->num_docs(), 0.0);
  std::vector<uint32_t> touched;
  uint64_t postings = 0;
  {
    obs::Span postings_span(spans, "index.postings");
    for (const auto& [term, qpositions] : terms) {
      const auto qtf = static_cast<uint32_t>(qpositions.size());
      const uint64_t before = postings;
      index_->ScanPostings(
          term, [&](uint32_t doc, uint32_t tf, const uint32_t*, uint32_t) {
            if (acc[doc] == 0.0) touched.push_back(doc);
            acc[doc] += std::min(qtf, tf);
            ++postings;
          });
      TraceTerm(qpositions.size(), postings > before, trace);
    }
  }

  std::vector<CoarseCandidate> all;
  all.reserve(touched.size());
  for (uint32_t doc : touched) {
    CoarseCandidate cand;
    cand.doc = doc;
    cand.score = acc[doc];
    all.push_back(std::move(cand));
  }
  trace->postings_decoded += postings;
  trace->candidates_ranked += all.size();
  trace->candidates_discarded += all.size() > limit ? all.size() - limit : 0;
  SelectTop(&all, limit, [](const CoarseCandidate& c) { return c.score; });
  return all;
}

std::vector<CoarseCandidate> CoarseRanker::RankDiagonal(
    std::string_view query, uint32_t limit, uint32_t frame_width,
    obs::SearchTrace* trace, obs::SpanRecorder* spans) const {
  if (frame_width == 0) frame_width = 16;
  auto terms = QueryTermPositions(query, index_->options());
  trace->terms_distinct += terms.size();
  const int64_t qlen = static_cast<int64_t>(query.size());

  WindowScratch& scratch = ThreadWindowScratch();
  {
    obs::Span postings_span(spans, "index.postings");
    GatherAnchors(*index_, terms, [](uint32_t) { return true; },
                  &scratch.anchors, trace);
  }
  SortIntoWindows(index_->num_docs(), qlen, frame_width, &scratch);

  std::vector<DocWindow>& windows = scratch.windows;
  trace->candidates_ranked += windows.size();
  trace->candidates_discarded +=
      windows.size() > limit ? windows.size() - limit : 0;
  SelectTop(&windows, limit,
            [](const DocWindow& w) { return w.end - w.begin; });
  std::vector<CoarseCandidate> top(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    const DocWindow& w = windows[i];
    CoarseCandidate& cand = top[i];
    cand.doc = w.doc;
    cand.score = static_cast<double>(w.end - w.begin);
    cand.diagonal =
        static_cast<int64_t>((uint64_t{w.frame} + 1) * frame_width) - qlen;
    cand.has_diagonal = true;
    CarryWindow(scratch, w, &cand);
  }
  return top;
}

void CollectWindowAnchors(std::string_view query, const PostingSource& index,
                          uint32_t frame_width,
                          std::vector<CoarseCandidate>* candidates) {
  if (index.options().granularity != IndexGranularity::kPositional) return;
  if (frame_width == 0) frame_width = 16;
  std::vector<uint32_t> docs;
  for (const CoarseCandidate& cand : *candidates) {
    if (cand.doc_anchors == 0) docs.push_back(cand.doc);
  }
  if (docs.empty()) return;
  std::sort(docs.begin(), docs.end());

  WindowScratch& scratch = ThreadWindowScratch();
  GatherAnchors(
      index, QueryTermPositions(query, index.options()),
      [&](uint32_t doc) {
        return std::binary_search(docs.begin(), docs.end(), doc);
      },
      &scratch.anchors, /*trace=*/nullptr);
  SortIntoWindows(index.num_docs(), static_cast<int64_t>(query.size()),
                  frame_width, &scratch);
  for (CoarseCandidate& cand : *candidates) {
    if (cand.doc_anchors != 0) continue;
    if (const DocWindow* w = FindWindow(scratch.windows, cand.doc)) {
      CarryWindow(scratch, *w, &cand);
    }
  }
}

}  // namespace cafe
