/* The included header exists, so only the layering is wrong. */
#ifndef SEVF_SERVICE_DRR_SCHEDULER_H_
#define SEVF_SERVICE_DRR_SCHEDULER_H_

#endif // SEVF_SERVICE_DRR_SCHEDULER_H_
