#include "text/document.h"

#include <algorithm>

namespace stabletext {

DocumentProcessor::DocumentProcessor(TokenizerOptions tokenizer_options,
                                     StopWords stopwords)
    : tokenizer_(tokenizer_options), stopwords_(std::move(stopwords)) {}

void DocumentProcessor::SortedStems(std::string_view text,
                                    Scratch* scratch) const {
  scratch->tokens.clear();
  scratch->stems.clear();
  tokenizer_.Tokenize(text, &scratch->tokens);
  for (const std::string& tok : scratch->tokens) {
    if (stopwords_.Contains(tok)) continue;
    std::string stem = PorterStemmer::Stem(tok);
    if (stem.size() < 2) continue;
    scratch->stems.push_back(std::move(stem));
  }
  std::sort(scratch->stems.begin(), scratch->stems.end());
  scratch->stems.erase(
      std::unique(scratch->stems.begin(), scratch->stems.end()),
      scratch->stems.end());
}

Document DocumentProcessor::Process(uint32_t interval,
                                    std::string_view text) const {
  Scratch scratch;
  SortedStems(text, &scratch);
  Document doc;
  doc.interval = interval;
  doc.keywords = std::move(scratch.stems);
  return doc;
}

void DocumentProcessor::Append(std::string_view text, PackedDocuments* out,
                               Scratch* scratch) const {
  SortedStems(text, scratch);
  for (const std::string& stem : scratch->stems) {
    out->chars += stem;
    out->word_ends.push_back(static_cast<uint32_t>(out->chars.size()));
  }
  out->doc_ends.push_back(static_cast<uint32_t>(out->word_ends.size()));
}

}  // namespace stabletext
