/* Compiled outward-rounded interval kernels.
 *
 * Each product or quotient bound comes from the one corner that the operand
 * signs select, rounded one way by the sign of its exact error term.  A
 * function-for-function mirror of _pure.py, which documents the method;
 * keep the two in sync, refusals included: the KERNEL wrapper raises
 * ZeroDivisionError for a kdiv divisor containing 0, and NumericError for
 * an unordered divisor or result.  Plain CPython C API, built by
 * setup.py as an optional extension (or by hand: gcc -O3 -shared -fPIC
 * -I<python include>).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Dekker's split and the division residual need every product rounded on
 * its own; a fused multiply-add would change their results.  The pragma
 * covers every function below it. */
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

/* Error term x*y - p of the product x*y rounded to p (NaN if the split
 * overflows). */
static double prod_err(double x, double y, double p)
{
    double xh = x * SPLIT, yh = y * SPLIT, xl, yl;
    xh = xh - (xh - x);
    xl = x - xh;
    yh = yh - (yh - y);
    yl = y - yh;
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl;
}

static double prod_down(double x, double y)
{
    double p = x * y, ap = fabs(p);
    if (ap > BIG || (ap < TINY && x != 0.0 && y != 0.0)) return down(p); /* see _pure */
    return prod_err(x, y, p) >= 0.0 ? p : down(p); /* NaN: the split overflowed */
}

static double prod_up(double x, double y)
{
    double p = x * y, ap = fabs(p);
    if (ap > BIG || (ap < TINY && x != 0.0 && y != 0.0)) return up(p);
    return prod_err(x, y, p) <= 0.0 ? p : up(p);
}

/* Sign-selected corners; a min or max compares in the order of min()/max(). */
static void kmul(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    if ((al == 0.0 && ah == 0.0) || (bl == 0.0 && bh == 0.0)) { *lo = 0.0; *hi = 0.0; }
    else if (al == 1.0 && ah == 1.0) { *lo = bl; *hi = bh; }
    else if (bl == 1.0 && bh == 1.0) { *lo = al; *hi = ah; }
    else if (al >= 0.0) {
        if (bl >= 0.0) { *lo = prod_down(al, bl); *hi = prod_up(ah, bh); }
        else if (bh <= 0.0) { *lo = prod_down(ah, bl); *hi = prod_up(al, bh); }
        else { *lo = prod_down(ah, bl); *hi = prod_up(ah, bh); }
    }
    else if (ah <= 0.0) {
        if (bl >= 0.0) { *lo = prod_down(al, bh); *hi = prod_up(ah, bl); }
        else if (bh <= 0.0) { *lo = prod_down(ah, bh); *hi = prod_up(al, bl); }
        else { *lo = prod_down(al, bh); *hi = prod_up(al, bl); }
    }
    else if (bl >= 0.0) { *lo = prod_down(al, bh); *hi = prod_up(ah, bh); }
    else if (bh <= 0.0) { *lo = prod_down(ah, bl); *hi = prod_up(al, bl); }
    else {
        double d = prod_down(ah, bl), u = prod_up(ah, bh);
        *lo = prod_down(al, bh);
        *hi = prod_up(al, bl);
        if (d < *lo) *lo = d;
        if (u > *hi) *hi = u;
    }
}

/* Residual a - q*b of the quotient a/b rounded to q, exact (NaN if the split
 * or the error term may overflow or underflow). */
static double quot_rem(double a, double b, double q)
{
    double aq = fabs(q), aa = fabs(a), p;
    if (aq > BIG || (aq < TINY && q != 0.0) || aa > BIG || (aa > 0.0 && aa < TINY)) return NAN;
    p = q * b;
    return (a - p) - prod_err(q, b, p);
}

static double quot_down(double a, double b)
{
    double q = a / b, rem = quot_rem(a, b, q);
    return rem == 0.0 || (rem == rem && (rem > 0.0) == (b > 0.0)) ? q : down(q);
}

static double quot_up(double a, double b)
{
    double q = a / b, rem = quot_rem(a, b, q);
    return rem == 0.0 || (rem == rem && (rem > 0.0) != (b > 0.0)) ? q : up(q);
}

static void kdiv(double al, double ah, double bl, double bh, double *lo, double *hi)
{
    /* py_kdiv has refused a divisor that contains 0 or is unordered */
    if (bl == 1.0 && bh == 1.0) { *lo = al; *hi = ah; }
    else if (bl > 0.0) {
        if (al >= 0.0) { *lo = quot_down(al, bh); *hi = quot_up(ah, bl); }
        else if (ah <= 0.0) { *lo = quot_down(al, bl); *hi = quot_up(ah, bh); }
        else { *lo = quot_down(al, bl); *hi = quot_up(ah, bl); }
    }
    else if (al >= 0.0) { *lo = quot_down(ah, bh); *hi = quot_up(al, bl); }
    else if (ah <= 0.0) { *lo = quot_down(ah, bl); *hi = quot_up(al, bh); }
    else { *lo = quot_down(ah, bh); *hi = quot_up(al, bh); }
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

static PyObject *NumericError; /* stlmon.errors.NumericError */

#define KERNEL(name, divides)                                                          \
    static PyObject *py_##name(PyObject *mod, PyObject *const *args, Py_ssize_t nargs) \
    {                                                                                  \
        double v[4], lo, hi;                                                           \
        if (nargs != 4)                                                                \
            return PyErr_Format(PyExc_TypeError,                                       \
                                #name "() takes 4 arguments (%zd given)", nargs);      \
        for (int i = 0; i < 4; i++)                                                    \
            if ((v[i] = as_double(args[i])) == -1.0 && PyErr_Occurred()) return NULL;  \
        if (divides && v[2] <= 0.0 && 0.0 <= v[3])                                     \
            return PyErr_Format(PyExc_ZeroDivisionError,                               \
                "division by zero-containing interval [%R, %R]", args[2], args[3]);    \
        if (divides && !(v[2] <= v[3]))                                                \
            return PyErr_Format(NumericError,                                          \
                "divisor (%R, %R) is not an ordered pair", args[2], args[3]);          \
        name(v[0], v[1], v[2], v[3], &lo, &hi);                                        \
        PyObject *t = pair(lo, hi);                                                    \
        if (t != NULL && !(lo <= hi)) {                                                \
            PyErr_Format(NumericError, "kernel result %R is not an ordered pair", t);  \
            Py_CLEAR(t);                                                               \
        }                                                                              \
        return t;                                                                      \
    }

KERNEL(kadd, 0)
KERNEL(ksub, 0)
KERNEL(kmul, 0)
KERNEL(kdiv, 1)

#define FASTCALL(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FASTCALL(kadd),
    FASTCALL(ksub),
    FASTCALL(kmul),
    FASTCALL(kdiv),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fast", "Compiled outward-rounded interval kernels.", -1, methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    PyObject *errors = PyImport_ImportModule("stlmon.errors"), *m = NULL;
    if (errors == NULL) return NULL;
    Py_XSETREF(NumericError, PyObject_GetAttrString(errors, "NumericError"));
    Py_DECREF(errors);
    if (NumericError != NULL) m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0) Py_CLEAR(m);
    return m;
}
