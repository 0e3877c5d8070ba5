/* Compiled solver kernels: the C twin of _kernels_py.py. Both backends
 * return bit-identical floats because each candidate point is scored with
 * the same operations in the same order (coordinate c + step * u, residual
 * sqrt(dx * dx + dy * dy) - d, summed in sample order, divided by n) and
 * the 8 candidates are compared in the same order with the same tie-break;
 * the loops differ (here one pass over the samples per candidate, there one
 * pass per round). Build with -ffp-contract=off (no FMA fusion in the
 * residual arithmetic) and keep the two files in step. Samples are 1-D
 * contiguous buffers of C doubles. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

enum { NORM_L1 = 0, NORM_L2 = 1 };

/* Axis moves first, then diagonals; order matters for tie-breaking parity. */
static const double DIR_X[8] = {1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0};
static const double DIR_Y[8] = {0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0};

typedef struct {
    Py_buffer bufs[3];
    int held;
    Py_ssize_t n;
} Samples;

static void
samples_release(Samples *s)
{
    while (s->held > 0)
        PyBuffer_Release(&s->bufs[--s->held]);
}

/* Acquire obs_x, obs_y, dist as equal-length, non-empty double buffers. */
static int
samples_acquire(Samples *s, PyObject *objs[3])
{
    for (s->held = 0; s->held < 3; s->held++) {
        Py_buffer *b = &s->bufs[s->held];
        if (PyObject_GetBuffer(objs[s->held], b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
            goto fail;
        if (b->ndim > 1 || b->itemsize != sizeof(double) || b->format == NULL
                || strcmp(b->format, "d") != 0) {
            s->held++;
            PyErr_SetString(PyExc_TypeError, "sample buffers must hold C doubles");
            goto fail;
        }
    }
    s->n = s->bufs[0].len / (Py_ssize_t)sizeof(double);
    if (s->n == 0 || s->bufs[1].len != s->bufs[0].len || s->bufs[2].len != s->bufs[0].len) {
        PyErr_SetString(PyExc_ValueError, "sample buffers must be non-empty and equally long");
        goto fail;
    }
    return 0;
fail:
    samples_release(s);
    return -1;
}

static double
objective(const Samples *s, double px, double py, int norm_code)
{
    const double *x = s->bufs[0].buf, *y = s->bufs[1].buf, *d = s->bufs[2].buf;
    double acc = 0.0;
    for (Py_ssize_t i = 0; i < s->n; i++) {
        double dx = px - x[i];
        double dy = py - y[i];
        double r = sqrt(dx * dx + dy * dy) - d[i];
        acc += norm_code == NORM_L1 ? fabs(r) : r * r;
    }
    return acc / (double)s->n;
}

static PyObject *
objective_value(PyObject *self, PyObject *args)
{
    PyObject *objs[3];
    double px, py;
    int norm_code;
    Samples s;
    if (!PyArg_ParseTuple(args, "OOOddi:objective_value", &objs[0], &objs[1],
                          &objs[2], &px, &py, &norm_code)
            || samples_acquire(&s, objs) < 0)
        return NULL;
    double f = objective(&s, px, py, norm_code);
    samples_release(&s);
    return PyFloat_FromDouble(f);
}

static PyObject *
solve_pattern(PyObject *self, PyObject *args)
{
    PyObject *objs[3];
    double cx, cy, fc, step, tol;
    long max_iter, it = 0;
    int norm_code;
    Samples s;
    if (!PyArg_ParseTuple(args, "OOOddddli:solve_pattern", &objs[0], &objs[1],
                          &objs[2], &cx, &cy, &step, &tol, &max_iter, &norm_code)
            || samples_acquire(&s, objs) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    fc = objective(&s, cx, cy, norm_code);
    while (it < max_iter) {
        it++;
        int improved = 0;
        double bf = fc, bx = cx, by = cy;
        for (int k = 0; k < 8; k++) {
            double nx = cx + step * DIR_X[k];
            double ny = cy + step * DIR_Y[k];
            double f = objective(&s, nx, ny, norm_code);
            if (f < bf || (improved && f == bf && (nx < bx || (nx == bx && ny < by)))) {
                improved = 1;
                bf = f;
                bx = nx;
                by = ny;
            }
        }
        if (improved) {
            cx = bx;
            cy = by;
            fc = bf;
        } else {
            step *= 0.5;
            if (tol > 0.0 && step < tol)
                break;
        }
    }
    Py_END_ALLOW_THREADS
    samples_release(&s);
    return Py_BuildValue("(dddl)", cx, cy, fc, it);
}

static PyMethodDef kernel_methods[] = {
    {"objective_value", objective_value, METH_VARARGS,
     "Per-sample-normalized residual norm of point (px, py)."},
    {"solve_pattern", solve_pattern, METH_VARARGS,
     "Compass/pattern search with step halving; returns (x, y, objective, rounds)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {PyModuleDef_HEAD_INIT, "_kernels",
                                           "Compiled solver kernels.", -1, kernel_methods};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&kernel_module);
    if (m != NULL && (PyModule_AddIntConstant(m, "NORM_L1", NORM_L1) < 0
                      || PyModule_AddIntConstant(m, "NORM_L2", NORM_L2) < 0))
        Py_CLEAR(m);
    return m;
}
