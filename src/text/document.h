// Document model: a blog post is a bag of (preprocessed) keywords stamped
// with the temporal interval it was created in. Document holds one post's
// keywords as strings; PackedDocuments holds the same keywords for many
// posts in three flat buffers, which is how the engine tokenizes a tick.

#ifndef STABLETEXT_TEXT_DOCUMENT_H_
#define STABLETEXT_TEXT_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace stabletext {

/// \brief A single post, preprocessed to a *set* of distinct keywords.
///
/// The paper's co-occurrence count A(u,v) is the number of documents
/// containing both u and v, so within one document each keyword counts
/// once; Document therefore stores distinct keywords, sorted.
struct Document {
  uint32_t interval = 0;           ///< Temporal interval index (e.g. day).
  std::vector<std::string> keywords;  ///< Distinct, sorted, stemmed.
};

/// \brief The keywords of consecutive posts, packed flat.
///
/// Post d's keywords are words [doc_ends[d-1], doc_ends[d]) (from 0 for
/// the first post), each distinct and in the sorted order of
/// Document::keywords; word i is chars[word_ends[i-1], word_ends[i]).
/// Three allocations hold a whole chunk of posts instead of a vector and
/// its strings per post, and Reserve() sizes all three from the posts'
/// bytes, which bound them, so the buffers can be allocated by one thread
/// and filled by another without reallocating.
struct PackedDocuments {
  std::string chars;
  std::vector<uint32_t> word_ends;
  std::vector<uint32_t> doc_ends;

  /// Reserves room for `posts` posts of `text_bytes` bytes in total: a
  /// keyword is a distinct stem of a token of two or more characters, so
  /// there are at most (bytes + 1) / 3 of them per post and their
  /// characters never outnumber the post's.
  void Reserve(size_t posts, size_t text_bytes) {
    chars.reserve(text_bytes);
    word_ends.reserve(text_bytes / 3 + posts);
    doc_ends.reserve(posts);
  }

  size_t size() const { return doc_ends.size(); }

  /// Precondition: i < word_ends.size().
  std::string_view Word(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : word_ends[i - 1];
    return std::string_view(chars).substr(begin, word_ends[i] - begin);
  }
};

/// \brief Turns raw post text into a Document: tokenize, drop stop words,
/// stem, deduplicate.
///
/// The const methods may run concurrently from many threads on one
/// processor.
class DocumentProcessor {
 public:
  DocumentProcessor(TokenizerOptions tokenizer_options = {},
                    StopWords stopwords = StopWords());

  /// Preprocesses `text` posted in `interval`.
  Document Process(uint32_t interval, std::string_view text) const;

  /// Working buffers for Append, reused across posts by one thread.
  struct Scratch {
    std::vector<std::string> tokens;
    std::vector<std::string> stems;
  };

  /// Appends the keywords Process() gives for `text` to `out` as its next
  /// post.
  void Append(std::string_view text, PackedDocuments* out,
              Scratch* scratch) const;

 private:
  // Leaves the sorted, distinct keywords of `text` in scratch->stems.
  void SortedStems(std::string_view text, Scratch* scratch) const;

  Tokenizer tokenizer_;
  StopWords stopwords_;
};

}  // namespace stabletext

#endif  // STABLETEXT_TEXT_DOCUMENT_H_
