#include "data/categorical_dataset.h"

#include <algorithm>

namespace lshclust {

size_t CategoricalDataset::PresentTokens(uint32_t item,
                                         std::vector<uint32_t>* out) const {
  out->clear();
  const auto row = Row(item);
  if (absent_codes_.empty()) {
    out->assign(row.begin(), row.end());
  } else {
    for (const uint32_t code : row) {
      if (!absent_codes_[code]) out->push_back(code);
    }
  }
  return out->size();
}

std::string CategoricalDataset::ValueToString(uint32_t item,
                                              uint32_t attribute) const {
  LSHC_CHECK_LT(attribute, num_attributes_);
  const uint32_t code = Row(item)[attribute];
  if (interner_ != nullptr) return interner_->ToString(code);
  std::string text = "#";
  text += std::to_string(code);
  return text;
}

Result<CategoricalDataset> CategoricalDataset::FromCodes(
    uint32_t num_items, uint32_t num_attributes, uint32_t num_codes,
    std::vector<uint32_t> codes, std::vector<uint32_t> labels,
    std::vector<bool> absent_codes, std::shared_ptr<ValueInterner> interner) {
  if (static_cast<uint64_t>(num_items) * num_attributes != codes.size()) {
    return Status::InvalidArgument(
        "code matrix has " + std::to_string(codes.size()) +
        " entries, expected " +
        std::to_string(static_cast<uint64_t>(num_items) * num_attributes));
  }
  if (!labels.empty() && labels.size() != num_items) {
    return Status::InvalidArgument(
        "labels must be empty or one per item; got " +
        std::to_string(labels.size()) + " for " + std::to_string(num_items) +
        " items");
  }
  if (!absent_codes.empty() && absent_codes.size() != num_codes) {
    return Status::InvalidArgument(
        "absent_codes must be empty or one flag per code");
  }
  // A branch-free max reduction vectorizes; a per-code early exit does
  // not, and its one-compare loop body then runs at whatever speed its
  // code alignment allows. The first offending code is looked up only for
  // the error message.
  uint32_t max_code = 0;
  for (const uint32_t code : codes) max_code = std::max(max_code, code);
  if (!codes.empty() && max_code >= num_codes) {
    const uint32_t code = *std::find_if(
        codes.begin(), codes.end(),
        [num_codes](uint32_t c) { return c >= num_codes; });
    return Status::OutOfRange("code " + std::to_string(code) +
                              " >= num_codes " + std::to_string(num_codes));
  }
  CategoricalDataset dataset;
  dataset.num_items_ = num_items;
  dataset.num_attributes_ = num_attributes;
  dataset.num_codes_ = num_codes;
  dataset.codes_ = std::move(codes);
  dataset.labels_ = std::move(labels);
  dataset.absent_codes_ = std::move(absent_codes);
  dataset.interner_ = std::move(interner);
  return dataset;
}

CategoricalDatasetBuilder::CategoricalDatasetBuilder(
    std::vector<std::string> attribute_names)
    : attribute_names_(std::move(attribute_names)) {
  LSHC_CHECK(!attribute_names_.empty())
      << "a dataset needs at least one attribute";
}

void CategoricalDatasetBuilder::MarkAbsentValue(std::string value) {
  LSHC_CHECK_EQ(num_rows_, 0u)
      << "MarkAbsentValue must be called before the first AddRow";
  absent_values_.push_back(std::move(value));
  any_absent_ = true;
}

Status CategoricalDatasetBuilder::AddRow(std::span<const std::string> values,
                                         std::optional<uint32_t> label) {
  if (values.size() != attribute_names_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(values.size()) + " values, expected " +
        std::to_string(attribute_names_.size()));
  }
  if (num_rows_ > 0 && label.has_value() != any_label_) {
    return Status::InvalidArgument(
        "either all rows or no rows may carry a label");
  }
  for (size_t a = 0; a < values.size(); ++a) {
    const std::string token =
        ValueInterner::MakeToken(attribute_names_[a], values[a]);
    const uint32_t code = interner_->Intern(token);
    if (code >= absent_codes_.size()) absent_codes_.resize(code + 1, false);
    if (any_absent_) {
      for (const auto& absent : absent_values_) {
        if (values[a] == absent) {
          absent_codes_[code] = true;
          break;
        }
      }
    }
    codes_.push_back(code);
  }
  if (label.has_value()) {
    any_label_ = true;
    labels_.push_back(*label);
  }
  ++num_rows_;
  return Status::OK();
}

CategoricalDataset CategoricalDatasetBuilder::Build() && {
  CategoricalDataset dataset;
  dataset.num_items_ = num_rows_;
  dataset.num_attributes_ = static_cast<uint32_t>(attribute_names_.size());
  dataset.num_codes_ = interner_->size();
  absent_codes_.resize(interner_->size(), false);
  dataset.codes_ = std::move(codes_);
  dataset.labels_ = std::move(labels_);
  if (any_absent_) dataset.absent_codes_ = std::move(absent_codes_);
  dataset.interner_ = std::move(interner_);
  return dataset;
}

Result<NumericDataset> NumericDataset::FromValues(uint32_t num_items,
                                                  uint32_t dimensions,
                                                  std::vector<double> values,
                                                  std::vector<uint32_t> labels) {
  if (static_cast<uint64_t>(num_items) * dimensions != values.size()) {
    return Status::InvalidArgument(
        "value matrix has " + std::to_string(values.size()) +
        " entries, expected " +
        std::to_string(static_cast<uint64_t>(num_items) * dimensions));
  }
  if (!labels.empty() && labels.size() != num_items) {
    return Status::InvalidArgument("labels must be empty or one per item");
  }
  NumericDataset dataset;
  dataset.num_items_ = num_items;
  dataset.dimensions_ = dimensions;
  dataset.values_ = std::move(values);
  dataset.labels_ = std::move(labels);
  return dataset;
}

}  // namespace lshclust
