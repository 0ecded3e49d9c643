#include "workloads/textgen.h"

#include <cassert>

namespace mrapid::wl {

TextGenerator::TextGenerator(std::uint64_t seed, std::size_t vocabulary_size, double zipf_s)
    : seed_(seed), zipf_s_(zipf_s) {
  assert(vocabulary_size > 0);
  vocabulary_.reserve(vocabulary_size);
  RngStream rng(seed, "textgen.vocabulary");
  for (std::size_t rank = 0; rank < vocabulary_size; ++rank) {
    // Frequent (low-rank) words are short, like real language.
    const std::size_t max_len = rank < 100 ? 4 : (rank < 5000 ? 7 : 10);
    const std::size_t len =
        static_cast<std::size_t>(rng.next_int(3, static_cast<std::int64_t>(max_len)));
    std::string word;
    word.reserve(len);
    for (std::size_t c = 0; c < len; ++c) {
      word.push_back(static_cast<char>('a' + rng.next_int(0, 25)));
    }
    vocabulary_.push_back(std::move(word));
  }
}

std::string TextGenerator::generate(Bytes bytes, std::uint64_t stream_tag) const {
  RngStream rng(seed_ ^ (stream_tag * 0x9E3779B97F4A7C15ull), "textgen.body");
  std::string text;
  text.reserve(static_cast<std::size_t>(bytes) + 16);
  const ZipfSampler& zipf =
      ZipfSampler::shared(static_cast<std::int64_t>(vocabulary_.size()), zipf_s_);
  while (static_cast<Bytes>(text.size()) < bytes) {
    const std::int64_t rank = zipf(rng) - 1;
    text += vocabulary_[static_cast<std::size_t>(rank)];
    text.push_back(' ');
  }
  text.resize(static_cast<std::size_t>(bytes));
  return text;
}

}  // namespace mrapid::wl
