#include "cosr/storage/checkpoint_manager.h"

#include <string>

#include "cosr/common/check.h"

namespace cosr {

void CheckpointManager::CheckWritable(const Extent& target) const {
  COSR_CHECK_MSG(IsWritable(target), "write into frozen region " +
                                         ToString(target) +
                                         " (freed since last checkpoint)");
}

void CheckpointManager::CheckMove(const Extent& from, const Extent& to) const {
  COSR_CHECK_MSG(!from.Overlaps(to), "overlapping move " + ToString(from) +
                                         " -> " + ToString(to) +
                                         " under checkpoint policy");
  CheckWritable(to);
}

}  // namespace cosr
