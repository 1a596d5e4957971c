// YCSB workload E (paper section 7.5): threaded conversations.
// 95% SCAN (read the latest posts of a conversation) and 5% INSERT (append a
// new 1 KB post of 10 x 100 B fields), with conversation popularity drawn
// from the standard YCSB zipfian distribution.
#ifndef SRC_APP_YCSB_H_
#define SRC_APP_YCSB_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/app/kvstore/command.h"
#include "src/common/random.h"

namespace hovercraft {

struct YcsbEConfig {
  uint64_t conversation_count = 2'000;
  double zipf_theta = 0.99;
  double scan_fraction = 0.95;
  int32_t scan_limit = 10;  // max elements returned by SCAN (paper setting)
  int32_t record_fields = 10;
  int32_t field_bytes = 100;  // 1 KB records
  // Posts inserted per conversation before measurement starts, so early
  // scans see realistic records.
  int32_t preload_per_conversation = 10;
};

// A record's layout, built once: field0=<bytes>;field1=<bytes>;... The
// `fieldN=` and `;` separators are fixed; Fill sets each field's bytes with
// one memset of one RNG draw, field by field.
class YcsbRecordTemplate {
 public:
  YcsbRecordTemplate(int32_t fields, int32_t field_bytes);

  // A record with every separator in place; the field bytes are unset.
  const std::string& bytes() const { return bytes_; }

  // Draws the fields of `record`, which holds a copy of bytes().
  void Fill(Rng& rng, std::string& record) const;

 private:
  std::string bytes_;
  std::vector<size_t> field_offsets_;
  size_t field_bytes_;
};

// The preload as a single-pass input range: each command is generated when
// the iterator reaches it, into one KvCommand the range reuses, so a
// reference from the iterator is valid until the next increment. The range
// owns its sizes and record template and holds only the caller's Rng, so it
// outlives the generator that made it: a range-for over
// YcsbEGenerator(config).PreloadCommands(rng) destroys that temporary first.
class YcsbEPreload {
 public:
  class Iterator {
   public:
    using value_type = KvCommand;
    using difference_type = std::ptrdiff_t;

    const KvCommand& operator*() const { return preload_->command_; }
    Iterator& operator++() {
      preload_->Advance();
      return *this;
    }
    void operator++(int) { preload_->Advance(); }
    bool operator==(std::default_sentinel_t) const {
      return preload_->conversation_ == preload_->conversations_;
    }

   private:
    friend class YcsbEPreload;
    explicit Iterator(YcsbEPreload* preload) : preload_(preload) {}

    YcsbEPreload* preload_;
  };

  YcsbEPreload(const YcsbEConfig& config, const YcsbRecordTemplate& record, Rng& rng);
  // Iterators point at the range.
  YcsbEPreload(const YcsbEPreload&) = delete;
  YcsbEPreload& operator=(const YcsbEPreload&) = delete;

  // Generates the first command. Single pass: call once.
  Iterator begin();
  std::default_sentinel_t end() const { return {}; }

 private:
  void Advance();

  uint64_t conversations_;
  int32_t per_conversation_;
  YcsbRecordTemplate record_;
  Rng* rng_;
  KvCommand command_;
  uint64_t conversation_;
  int32_t post_ = 0;
};

class YcsbEGenerator {
 public:
  explicit YcsbEGenerator(const YcsbEConfig& config);

  // Next operation of the E mix. Read-only iff the command is a SCAN.
  KvCommand Next(Rng& rng) const;

  // Commands that populate the store before the run: `preload_per_conversation`
  // inserts into each conversation in turn, drawn from `rng` as iterated.
  YcsbEPreload PreloadCommands(Rng& rng) const;

  // One 1 KB record: `record_fields` fields of `field_bytes` each.
  std::string MakeRecord(Rng& rng) const;

  static std::string ConversationKey(uint64_t id);

  const YcsbEConfig& config() const { return config_; }

 private:
  YcsbEConfig config_;
  ZipfianGenerator zipf_;
  YcsbRecordTemplate record_;
};

}  // namespace hovercraft

#endif  // SRC_APP_YCSB_H_
