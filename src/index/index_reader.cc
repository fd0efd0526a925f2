#include "index/index_reader.h"

#include <utility>

namespace cafe {

Result<IndexMode> ParseIndexMode(const std::string& name) {
  if (name == "memory" || name == "mem") return IndexMode::kMemory;
  if (name == "mmap") return IndexMode::kMmap;
  return Status::InvalidArgument(
      "unknown index mode '" + name + "' (want memory or mmap)");
}

const char* IndexModeName(IndexMode mode) {
  switch (mode) {
    case IndexMode::kMemory:
      return "memory";
    case IndexMode::kMmap:
      return "mmap";
  }
  return "unknown";
}

Result<IndexReader> IndexReader::Open(const std::string& path,
                                      IndexMode mode) {
  IndexReader reader;
  reader.mode_ = mode;
  switch (mode) {
    case IndexMode::kMemory: {
      Result<InvertedIndex> loaded = InvertedIndex::Load(path);
      if (!loaded.ok()) return loaded.status();
      reader.memory_ =
          std::make_unique<InvertedIndex>(std::move(*loaded));
      reader.source_ = reader.memory_.get();
      break;
    }
    case IndexMode::kMmap: {
      Result<std::unique_ptr<MmapIndex>> opened = MmapIndex::Open(path);
      if (!opened.ok()) return opened.status();
      reader.mapped_ = std::move(*opened);
      reader.source_ = reader.mapped_.get();
      break;
    }
  }
  return reader;
}

void IndexReader::AttachMetrics(obs::MetricsRegistry* registry) {
  if (mapped_ != nullptr) mapped_->AttachMetrics(registry);
}

void IndexReader::MoveFrom(IndexReader&& other) {
  mode_ = other.mode_;
  memory_ = std::move(other.memory_);
  mapped_ = std::move(other.mapped_);
  source_ = std::exchange(other.source_, nullptr);
}

}  // namespace cafe
