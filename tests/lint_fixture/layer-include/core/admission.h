/* Deliberately includes up the layer stack: core/ -> service/. */
#ifndef SEVF_CORE_ADMISSION_H_
#define SEVF_CORE_ADMISSION_H_

#include "service/drr_scheduler.h"

#endif // SEVF_CORE_ADMISSION_H_
