/* Compiled outward-rounded interval kernels.
 *
 * A function-for-function mirror of _pure.py, which documents the method;
 * keep the two in sync.  Plain CPython C API, built by setup.py as an
 * optional extension (or by hand: gcc -O3 -shared -fPIC -I<python include>).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Dekker's split and the division residual need every product rounded on
 * its own; a fused multiply-add would change their results. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

static const double SPLIT = 134217729.0; /* 2**27 + 1, Veltkamp split */
static const double BIG = 1e290;
static const double TINY = 1e-290;

static double down(double x) { return nextafter(x, -INFINITY); }
static double up(double x) { return nextafter(x, INFINITY); }

static void kadd(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    *lo = al + bl;
    if (*lo - al != bl || *lo - bl != al) *lo = down(*lo);
    *hi = ah + bh;
    if (*hi - ah != bh || *hi - bh != ah) *hi = up(*hi);
}

static void ksub(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    *lo = al - bh;
    if (*lo + bh != al || al - *lo != bh) *lo = down(*lo);
    *hi = ah - bl;
    if (*hi + bl != ah || ah - *hi != bl) *hi = up(*hi);
}

/* Error term of the product x*y rounded to p (NaN if the split overflows). */
static double prod_err(double x, double y, double p)
{
    double xh = x * SPLIT, yh = y * SPLIT, xl, yl;
    xh = xh - (xh - x);
    xl = x - xh;
    yh = yh - (yh - y);
    yl = y - yh;
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl;
}

static void prod_bounds(double x, double y, double *d, double *u)
{
    double p = x * y, ap = fabs(p), e;
    if (ap > BIG || (ap < TINY && x != 0.0 && y != 0.0)) { /* see _pure */
        *d = down(p);
        *u = up(p);
        return;
    }
    e = prod_err(x, y, p);
    if (e > 0.0) { *d = p; *u = up(p); }
    else if (e < 0.0) { *d = down(p); *u = p; }
    else if (e == 0.0) { *d = p; *u = p; }
    else { *d = down(p); *u = up(p); } /* NaN: the split overflowed */
}

static void quot_bounds(double a, double b, double *d, double *u)
{
    double q = a / b, aq = fabs(q), aa = fabs(a), p, rem;
    if (aq > BIG || (aq < TINY && q != 0.0) || aa > BIG || (aa > 0.0 && aa < TINY)) {
        *d = down(q);
        *u = up(q);
        return;
    }
    p = q * b;
    rem = (a - p) - prod_err(q, b, p);
    if (rem == 0.0) { *d = q; *u = q; }
    else if (rem != rem) { *d = down(q); *u = up(q); } /* the split overflowed */
    else if ((rem > 0.0) == (b > 0.0)) { *d = q; *u = up(q); }
    else { *d = down(q); *u = q; }
}

/* Hull of the four corner bounds, with the comparison order of min()/max(). */
static void corners(void (*f)(double, double, double *, double *), double al, double ah,
                    double bl, double bh, double *lo, double *hi)
{
    double d[4], u[4];
    f(al, bl, &d[0], &u[0]);
    f(al, bh, &d[1], &u[1]);
    f(ah, bl, &d[2], &u[2]);
    f(ah, bh, &d[3], &u[3]);
    *lo = d[0];
    *hi = u[0];
    for (int i = 1; i < 4; i++) {
        if (d[i] < *lo) *lo = d[i];
        if (u[i] > *hi) *hi = u[i];
    }
}

static void kmul(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    if ((al == 0.0 && ah == 0.0) || (bl == 0.0 && bh == 0.0)) { *lo = 0.0; *hi = 0.0; }
    else if (al == 1.0 && ah == 1.0) { *lo = bl; *hi = bh; }
    else if (bl == 1.0 && bh == 1.0) { *lo = al; *hi = ah; }
    else corners(prod_bounds, al, ah, bl, bh, lo, hi);
}

static void kdiv(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    /* caller guarantees 0 not in [bl, bh] */
    if (bl == 1.0 && bh == 1.0) { *lo = al; *hi = ah; }
    else corners(quot_bounds, al, ah, bl, bh, lo, hi);
}

static double as_double(PyObject *o)
{
    return PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
}

static PyObject *pair(double lo, double hi)
{
    PyObject *t = PyTuple_New(2), *a = PyFloat_FromDouble(lo), *b = PyFloat_FromDouble(hi);
    if (t == NULL || a == NULL || b == NULL) {
        Py_XDECREF(t);
        Py_XDECREF(a);
        Py_XDECREF(b);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, a);
    PyTuple_SET_ITEM(t, 1, b);
    return t;
}

#define KERNEL(name)                                                                   \
    static PyObject *py_##name(PyObject *mod, PyObject *const *args, Py_ssize_t nargs) \
    {                                                                                  \
        double v[4], lo, hi;                                                           \
        if (nargs != 4)                                                                \
            return PyErr_Format(PyExc_TypeError,                                       \
                                #name "() takes 4 arguments (%zd given)", nargs);      \
        for (int i = 0; i < 4; i++)                                                    \
            if ((v[i] = as_double(args[i])) == -1.0 && PyErr_Occurred()) return NULL;  \
        name(v[0], v[1], v[2], v[3], &lo, &hi);                                        \
        return pair(lo, hi);                                                           \
    }

KERNEL(kadd)
KERNEL(ksub)
KERNEL(kmul)
KERNEL(kdiv)

static PyObject *py_next_down(PyObject *mod, PyObject *x)
{
    double v = as_double(x);
    return v == -1.0 && PyErr_Occurred() ? NULL : PyFloat_FromDouble(down(v));
}

static PyObject *py_next_up(PyObject *mod, PyObject *x)
{
    double v = as_double(x);
    return v == -1.0 && PyErr_Occurred() ? NULL : PyFloat_FromDouble(up(v));
}

#define FASTCALL(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FASTCALL(kadd),
    FASTCALL(ksub),
    FASTCALL(kmul),
    FASTCALL(kdiv),
    {"next_down", py_next_down, METH_O, NULL},
    {"next_up", py_next_up, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fast", "Compiled outward-rounded interval kernels.", -1, methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0) Py_CLEAR(m);
    return m;
}
