"""umbilic-lab: curvature of immersed submanifolds and umbilic-point checks."""

from .ambient import (AmbientSpace, CartanAuditReport, CurvatureSample,
                      MetricSignature, cartan_audit, christoffel, geodesic,
                      k_difference_identity, riemann, sectional_curvature)
from .catalog import CatalogEntry, list_catalog, load_immersion, load_metric, resolve
from .immersion import (Immersion, ShapeReport, frames, is_umbilic,
                        normal_curvature, shape_report)
from .slicer import (SliceResult, SliceSpec, build_slice, fit_hyperbolic,
                     fit_sphere, identity_check, make_slice_spec, slice_shape,
                     slice_shapes, trace_slice, trace_slices)

__version__ = "0.1.0"
