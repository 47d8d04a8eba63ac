#ifndef ASUP_TESTS_TEST_UTIL_H_
#define ASUP_TESTS_TEST_UTIL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "asup/engine/search_engine.h"
#include "asup/index/inverted_index.h"
#include "asup/text/synthetic_corpus.h"
#include "asup/util/annotated_mutex.h"
#include "asup/util/random.h"
#include "asup/util/thread_pool.h"

namespace asup {
namespace testing_util {

/// A self-owning corpus + index + engine rig for tests.
struct Rig {
  std::unique_ptr<SyntheticCorpusGenerator> generator;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<Corpus> held_out;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<PlainSearchEngine> engine;

  KeywordQuery Q(const std::string& text) const {
    return KeywordQuery::Parse(corpus->vocabulary(), text);
  }
};

inline Rig MakeRig(size_t corpus_size, size_t k, uint64_t seed = 7,
                   size_t held_out_size = 0) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 2000;
  config.num_topics = 12;
  config.words_per_topic = 150;
  config.seed = seed;
  Rig rig;
  rig.generator = std::make_unique<SyntheticCorpusGenerator>(config);
  rig.corpus = std::make_unique<Corpus>(rig.generator->Generate(corpus_size));
  if (held_out_size > 0) {
    rig.held_out =
        std::make_unique<Corpus>(rig.generator->Generate(held_out_size));
  }
  rig.index = std::make_unique<InvertedIndex>(*rig.corpus);
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.index, k);
  return rig;
}

/// A rig whose seeded topics are rare enough that a topic head word's
/// document frequency is on the order of k — the regime of the paper's
/// correlated-query experiments (Figures 18/19), where virtual query
/// processing triggers reliably.
inline Rig MakeTopicalRig(size_t corpus_size, size_t k, uint64_t seed = 99,
                          size_t held_out_size = 0) {
  SyntheticCorpusConfig config;
  config.vocabulary_size = 10000;
  config.num_topics = 96;
  config.words_per_topic = 300;
  config.seed = seed;
  Rig rig;
  rig.generator = std::make_unique<SyntheticCorpusGenerator>(config);
  rig.corpus = std::make_unique<Corpus>(rig.generator->Generate(corpus_size));
  if (held_out_size > 0) {
    rig.held_out =
        std::make_unique<Corpus>(rig.generator->Generate(held_out_size));
  }
  rig.index = std::make_unique<InvertedIndex>(*rig.corpus);
  rig.engine = std::make_unique<PlainSearchEngine>(*rig.index, k);
  return rig;
}

// A corpus on both sides of the engine's fan-out rule: "common" is in
// every document, so its document frequency passes kFanOutMinPostings,
// while "rare" stays far below it. Every content pattern repeats `copies`
// times under distinct ids, so equal scores — ties broken by ascending id —
// are the rule rather than the exception.
inline Corpus FanOutCorpus(size_t copies) {
  auto vocab = std::make_shared<Vocabulary>();
  const TermId common = vocab->AddWord("common");
  const TermId rare = vocab->AddWord("rare");
  std::vector<TermId> words;
  for (int w = 0; w < 12; ++w) {
    std::string word = "w";
    word += std::to_string(w);
    words.push_back(vocab->AddWord(word));
  }
  const size_t num_docs = kFanOutMinPostings + kFanOutMinPostings / 4;
  Rng rng(41);
  std::vector<Document> docs;
  std::vector<TermId> tokens;
  for (size_t id = 0; id < num_docs; ++id) {
    if (id % copies == 0) {  // a new pattern
      tokens.assign({common});
      const size_t length = 2 + rng.UniformBelow(7);
      for (size_t i = 0; i < length; ++i) {
        tokens.push_back(words[rng.UniformBelow(words.size())]);
      }
      if (rng.UniformBelow(40) == 0) tokens.push_back(rare);
    }
    docs.emplace_back(static_cast<DocId>(id), tokens);
  }
  return Corpus(vocab, std::move(docs));
}

// How many tasks `call` leaves queued on `pool` while every worker of
// `pool` is held busy: nonzero exactly when `call` fanned out to `pool`.
// A scatter still completes — ParallelFor's calling thread covers the
// whole loop itself — while its helper tasks wait in the queue, to run
// (and find the loop done) once the workers are released. `pool` must
// have no other users during the call.
inline size_t TasksQueuedBy(ThreadPool& pool,
                            const std::function<void()>& call) {
  struct Hold {
    Mutex mutex;
    std::condition_variable changed;
    std::atomic<size_t> busy{0};
    std::atomic<bool> released{false};
  };
  const auto hold = std::make_shared<Hold>();
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([hold] {
      MutexLock lock(hold->mutex);
      hold->busy.fetch_add(1);
      hold->changed.notify_all();
      while (!hold->released.load()) lock.Wait(hold->changed);
    });
  }
  {
    MutexLock lock(hold->mutex);
    while (hold->busy.load() != pool.num_threads()) lock.Wait(hold->changed);
  }
  call();
  const size_t queued = pool.QueueDepth();
  {
    MutexLock lock(hold->mutex);
    hold->released.store(true);
  }
  hold->changed.notify_all();
  return queued;
}

}  // namespace testing_util
}  // namespace asup

#endif  // ASUP_TESTS_TEST_UTIL_H_
