#include "src/app/ycsb.h"

#include <cstring>
#include <ranges>

#include "src/common/check.h"

namespace hovercraft {

static_assert(std::ranges::input_range<YcsbEPreload>);

YcsbRecordTemplate::YcsbRecordTemplate(int32_t fields, int32_t field_bytes)
    : field_bytes_(static_cast<size_t>(field_bytes)) {
  HC_CHECK_GT(fields, 0);
  HC_CHECK_GT(field_bytes, 0);
  for (int32_t f = 0; f < fields; ++f) {
    bytes_ += "field";
    bytes_ += std::to_string(f);
    bytes_ += '=';
    field_offsets_.push_back(bytes_.size());
    bytes_.append(field_bytes_, ' ');
    bytes_ += ';';
  }
}

void YcsbRecordTemplate::Fill(Rng& rng, std::string& record) const {
  // Content does not matter for the workload; one draw per field keeps
  // generation cheap.
  for (const size_t offset : field_offsets_) {
    const char fill = static_cast<char>('a' + rng.NextBelow(26));
    std::memset(record.data() + offset, fill, field_bytes_);
  }
}

YcsbEPreload::YcsbEPreload(const YcsbEConfig& config, const YcsbRecordTemplate& record,
                           Rng& rng)
    : conversations_(config.conversation_count),
      per_conversation_(config.preload_per_conversation),
      record_(record),
      rng_(&rng),
      conversation_(per_conversation_ > 0 ? 0 : conversations_) {}

YcsbEPreload::Iterator YcsbEPreload::begin() {
  if (conversation_ != conversations_) {
    command_.op = KvOpcode::kYInsert;
    command_.key = YcsbEGenerator::ConversationKey(0);
    command_.value = record_.bytes();
    record_.Fill(*rng_, command_.value);
  }
  return Iterator(this);
}

void YcsbEPreload::Advance() {
  if (++post_ == per_conversation_) {
    post_ = 0;
    if (++conversation_ == conversations_) {
      return;
    }
    command_.key = YcsbEGenerator::ConversationKey(conversation_);
  }
  record_.Fill(*rng_, command_.value);
}

YcsbEGenerator::YcsbEGenerator(const YcsbEConfig& config)
    : config_(config),
      zipf_(config.conversation_count, config.zipf_theta),
      record_(config.record_fields, config.field_bytes) {
  HC_CHECK_GT(config.conversation_count, 0u);
}

std::string YcsbEGenerator::ConversationKey(uint64_t id) {
  return "conv:" + std::to_string(id);
}

std::string YcsbEGenerator::MakeRecord(Rng& rng) const {
  std::string record = record_.bytes();
  record_.Fill(rng, record);
  return record;
}

KvCommand YcsbEGenerator::Next(Rng& rng) const {
  KvCommand cmd;
  cmd.key = ConversationKey(zipf_.Next(rng));
  if (rng.NextBool(config_.scan_fraction)) {
    cmd.op = KvOpcode::kYScan;
    cmd.scan_limit = config_.scan_limit;
  } else {
    cmd.op = KvOpcode::kYInsert;
    cmd.value = MakeRecord(rng);
  }
  return cmd;
}

YcsbEPreload YcsbEGenerator::PreloadCommands(Rng& rng) const {
  return YcsbEPreload(config_, record_, rng);
}

}  // namespace hovercraft
