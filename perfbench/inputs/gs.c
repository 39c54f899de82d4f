/*
 * gs -- a PostScript-like page-description interpreter, after the
 * Table 1 entry.  The property the paper highlights: about half the
 * functions in gs are referenced only indirectly, which defeats both
 * the simple heuristics and the Markov pointer-node approximation.
 * Here *every* operator is a separate C function reached only through
 * the dispatch table, and the table is large relative to the program.
 *
 * Language: whitespace-separated tokens.  Integers push themselves;
 * "{" ... "}" pushes a procedure (by token range); names execute
 * operators or user definitions ("/name ... def").  Painting operators
 * accumulate path statistics instead of producing pixels.
 *
 * Input: a PostScript-ish program.
 */

#define MAX_TOKENS 2048
#define MAX_STACK  256
#define MAX_TOKEN_LEN 16
#define MAX_OPS    48
#define MAX_DEFS   64

/* Value tags. */
#define V_INT  0
#define V_PROC 1 /* token range [arg1, arg2) */
#define V_NAME 2 /* arg1 = token index of the /name literal */

char token_text[MAX_TOKENS][MAX_TOKEN_LEN];
int token_count;

int stack_tag[MAX_STACK];
long stack_a[MAX_STACK];
long stack_b[MAX_STACK];
int stack_top;

char op_names[MAX_OPS][MAX_TOKEN_LEN];
void (*op_table[MAX_OPS])(void);
int op_count;

char def_names[MAX_DEFS][MAX_TOKEN_LEN];
int def_tag[MAX_DEFS];
long def_a[MAX_DEFS];
long def_b[MAX_DEFS];
int def_count;

/* Graphics state. */
long current_x, current_y;
long path_segments;
long total_length2; /* sum of squared segment lengths */
long strokes, fills;
long translate_x, translate_y;
long scale_factor; /* percent */

long executed_tokens;

void run_range(int first, int last);
int lookup_definition(char *name);

void die(char *msg)
{
    puts(msg);
    exit(1);
}

/* --------------------------------------------------------------- */
/* Stack primitives (also only reached via the dispatch table).      */

void push_int(long value)
{
    if (stack_top >= MAX_STACK)
        die("stack overflow");
    stack_tag[stack_top] = V_INT;
    stack_a[stack_top] = value;
    stack_b[stack_top] = 0;
    stack_top++;
}

long pop_int(void)
{
    if (stack_top == 0)
        die("stack underflow");
    stack_top--;
    if (stack_tag[stack_top] != V_INT)
        die("expected integer");
    return stack_a[stack_top];
}

/* --------------------------------------------------------------- */
/* Operators.  None of these is ever called directly by name.        */

void op_add(void) { long b = pop_int(); push_int(pop_int() + b); }
void op_sub(void) { long b = pop_int(); push_int(pop_int() - b); }
void op_mul(void) { long b = pop_int(); push_int(pop_int() * b); }

void op_div(void)
{
    long b = pop_int();
    if (b == 0)
        die("division by zero");
    push_int(pop_int() / b);
}

void op_mod(void)
{
    long b = pop_int();
    if (b == 0)
        die("modulo by zero");
    push_int(pop_int() % b);
}

void op_neg(void) { push_int(-pop_int()); }
void op_abs(void) { long v = pop_int(); push_int(v < 0 ? -v : v); }

void op_dup(void)
{
    if (stack_top == 0)
        die("stack underflow");
    if (stack_top >= MAX_STACK)
        die("stack overflow");
    stack_tag[stack_top] = stack_tag[stack_top - 1];
    stack_a[stack_top] = stack_a[stack_top - 1];
    stack_b[stack_top] = stack_b[stack_top - 1];
    stack_top++;
}

void op_pop(void)
{
    if (stack_top == 0)
        die("stack underflow");
    stack_top--;
}

void op_exch(void)
{
    int tag;
    long a, b;
    if (stack_top < 2)
        die("stack underflow");
    tag = stack_tag[stack_top - 1];
    a = stack_a[stack_top - 1];
    b = stack_b[stack_top - 1];
    stack_tag[stack_top - 1] = stack_tag[stack_top - 2];
    stack_a[stack_top - 1] = stack_a[stack_top - 2];
    stack_b[stack_top - 1] = stack_b[stack_top - 2];
    stack_tag[stack_top - 2] = tag;
    stack_a[stack_top - 2] = a;
    stack_b[stack_top - 2] = b;
}

void op_eq(void) { push_int(pop_int() == pop_int()); }
void op_ne(void) { push_int(pop_int() != pop_int()); }
void op_gt(void) { long b = pop_int(); push_int(pop_int() > b); }
void op_lt(void) { long b = pop_int(); push_int(pop_int() < b); }
void op_and(void) { long b = pop_int(); push_int(pop_int() && b); }
void op_or(void) { long b = pop_int(); push_int(pop_int() || b); }
void op_not(void) { push_int(!pop_int()); }

long transform_x(long x)
{
    return translate_x + (x * scale_factor) / 100;
}

long transform_y(long y)
{
    return translate_y + (y * scale_factor) / 100;
}

void op_moveto(void)
{
    long y = pop_int();
    long x = pop_int();
    current_x = transform_x(x);
    current_y = transform_y(y);
}

void op_lineto(void)
{
    long y = pop_int();
    long x = pop_int();
    long nx = transform_x(x);
    long ny = transform_y(y);
    long dx = nx - current_x;
    long dy = ny - current_y;
    path_segments++;
    total_length2 += dx * dx + dy * dy;
    current_x = nx;
    current_y = ny;
}

void op_rlineto(void)
{
    long dy = (pop_int() * scale_factor) / 100;
    long dx = (pop_int() * scale_factor) / 100;
    path_segments++;
    total_length2 += dx * dx + dy * dy;
    current_x += dx;
    current_y += dy;
}

void op_stroke(void) { strokes++; }
void op_fill(void) { fills++; }

void op_translate(void)
{
    long y = pop_int();
    long x = pop_int();
    translate_x += x;
    translate_y += y;
}

void op_scale(void)
{
    long pct = pop_int();
    if (pct <= 0)
        die("bad scale");
    scale_factor = (scale_factor * pct) / 100;
}

void op_print(void)
{
    printf("%ld\n", pop_int());
}

void op_pstack(void)
{
    int i;
    printf("|");
    for (i = 0; i < stack_top; i++) {
        if (stack_tag[i] == V_INT)
            printf(" %ld", stack_a[i]);
        else
            printf(" {proc}");
    }
    printf("\n");
}

/* Name binding: pops a value and a /name literal (PostScript def). */
void op_def(void)
{
    int value_tag;
    long value_a, value_b;
    char *name;
    int slot;
    if (stack_top < 2)
        die("def needs a name and a value");
    stack_top--;
    value_tag = stack_tag[stack_top];
    value_a = stack_a[stack_top];
    value_b = stack_b[stack_top];
    stack_top--;
    if (stack_tag[stack_top] != V_NAME)
        die("def needs a /name");
    name = token_text[stack_a[stack_top]] + 1;
    slot = lookup_definition(name);
    if (slot < 0) {
        if (def_count >= MAX_DEFS)
            die("too many definitions");
        slot = def_count;
        strcpy(def_names[slot], name);
        def_count++;
    }
    def_tag[slot] = value_tag;
    def_a[slot] = value_a;
    def_b[slot] = value_b;
}

/* Procedure combinators: these re-enter the token executor. */

void op_exec(void)
{
    if (stack_top == 0)
        die("stack underflow");
    stack_top--;
    if (stack_tag[stack_top] != V_PROC)
        die("exec of non-procedure");
    run_range((int)stack_a[stack_top], (int)stack_b[stack_top]);
}

void op_repeat(void)
{
    long first, last, count, i;
    if (stack_top == 0)
        die("stack underflow");
    stack_top--;
    if (stack_tag[stack_top] != V_PROC)
        die("repeat needs a procedure");
    first = stack_a[stack_top];
    last = stack_b[stack_top];
    count = pop_int();
    for (i = 0; i < count; i++)
        run_range((int)first, (int)last);
}

void op_if(void)
{
    long first, last, condition;
    if (stack_top == 0)
        die("stack underflow");
    stack_top--;
    if (stack_tag[stack_top] != V_PROC)
        die("if needs a procedure");
    first = stack_a[stack_top];
    last = stack_b[stack_top];
    condition = pop_int();
    if (condition)
        run_range((int)first, (int)last);
}

void op_ifelse(void)
{
    long f1, l1, f2, l2, condition;
    if (stack_top < 2)
        die("stack underflow");
    stack_top--;
    if (stack_tag[stack_top] != V_PROC)
        die("ifelse needs procedures");
    f2 = stack_a[stack_top];
    l2 = stack_b[stack_top];
    stack_top--;
    if (stack_tag[stack_top] != V_PROC)
        die("ifelse needs procedures");
    f1 = stack_a[stack_top];
    l1 = stack_b[stack_top];
    condition = pop_int();
    if (condition)
        run_range((int)f1, (int)l1);
    else
        run_range((int)f2, (int)l2);
}

/* --------------------------------------------------------------- */
/* Operator registration: the only place operator names appear.      */

void register_op(char *name, void (*function)(void))
{
    if (op_count >= MAX_OPS)
        die("too many operators");
    strcpy(op_names[op_count], name);
    op_table[op_count] = function;
    op_count++;
}

void install_operators(void)
{
    register_op("add", op_add);
    register_op("sub", op_sub);
    register_op("mul", op_mul);
    register_op("div", op_div);
    register_op("mod", op_mod);
    register_op("neg", op_neg);
    register_op("abs", op_abs);
    register_op("dup", op_dup);
    register_op("pop", op_pop);
    register_op("exch", op_exch);
    register_op("eq", op_eq);
    register_op("ne", op_ne);
    register_op("gt", op_gt);
    register_op("lt", op_lt);
    register_op("and", op_and);
    register_op("or", op_or);
    register_op("not", op_not);
    register_op("moveto", op_moveto);
    register_op("lineto", op_lineto);
    register_op("rlineto", op_rlineto);
    register_op("stroke", op_stroke);
    register_op("fill", op_fill);
    register_op("translate", op_translate);
    register_op("scale", op_scale);
    register_op("print", op_print);
    register_op("pstack", op_pstack);
    register_op("exec", op_exec);
    register_op("repeat", op_repeat);
    register_op("if", op_if);
    register_op("ifelse", op_ifelse);
    register_op("def", op_def);
}

/* --------------------------------------------------------------- */
/* Tokenizer.                                                        */

void read_tokens(void)
{
    int c, length;
    token_count = 0;
    length = 0;
    for (;;) {
        c = getchar();
        if (c == -1 || c == ' ' || c == '\n' || c == '\t' ||
            c == '\r') {
            if (length > 0) {
                if (token_count >= MAX_TOKENS)
                    die("too many tokens");
                token_text[token_count][length] = 0;
                token_count++;
                length = 0;
            }
            if (c == -1)
                return;
        } else if (c == '%') {
            while (c != -1 && c != '\n')
                c = getchar();
        } else {
            if (length < MAX_TOKEN_LEN - 1)
                token_text[token_count][length++] = (char)c;
        }
    }
}

int is_number(char *token)
{
    int i = 0;
    if (token[0] == '-' && token[1] != 0)
        i = 1;
    if (token[i] == 0)
        return 0;
    while (token[i] != 0) {
        if (!isdigit(token[i]))
            return 0;
        i++;
    }
    return 1;
}

int find_matching_brace(int open_index)
{
    int depth = 1;
    int i = open_index + 1;
    while (i < token_count) {
        if (strcmp(token_text[i], "{") == 0)
            depth++;
        else if (strcmp(token_text[i], "}") == 0) {
            depth--;
            if (depth == 0)
                return i;
        }
        i++;
    }
    die("unterminated procedure");
    return -1;
}

int lookup_definition(char *name)
{
    int i;
    for (i = def_count - 1; i >= 0; i--)
        if (strcmp(def_names[i], name) == 0)
            return i;
    return -1;
}

int lookup_operator(char *name)
{
    int i;
    for (i = 0; i < op_count; i++)
        if (strcmp(op_names[i], name) == 0)
            return i;
    return -1;
}

/* --------------------------------------------------------------- */
/* Executor.                                                         */

void run_range(int first, int last)
{
    int i = first;
    while (i < last) {
        char *token = token_text[i];
        executed_tokens++;
        if (is_number(token)) {
            push_int(atoi(token));
            i++;
        } else if (strcmp(token, "{") == 0) {
            int close = find_matching_brace(i);
            if (stack_top >= MAX_STACK)
                die("stack overflow");
            stack_tag[stack_top] = V_PROC;
            stack_a[stack_top] = i + 1;
            stack_b[stack_top] = close;
            stack_top++;
            i = close + 1;
        } else if (token[0] == '/') {
            if (stack_top >= MAX_STACK)
                die("stack overflow");
            stack_tag[stack_top] = V_NAME;
            stack_a[stack_top] = i;
            stack_b[stack_top] = 0;
            stack_top++;
            i++;
        } else {
            int slot = lookup_definition(token);
            if (slot >= 0) {
                if (def_tag[slot] == V_INT) {
                    push_int(def_a[slot]);
                } else {
                    run_range((int)def_a[slot], (int)def_b[slot]);
                }
                i++;
            } else {
                int op = lookup_operator(token);
                if (op < 0) {
                    printf("unknown operator: %s\n", token);
                    exit(1);
                }
                /* Every operator call is indirect. */
                (*op_table[op])();
                i++;
            }
        }
    }
}

int main(void)
{
    scale_factor = 100;
    install_operators();
    read_tokens();
    run_range(0, token_count);
    printf("tokens=%ld segments=%ld length2=%ld\n",
           executed_tokens, path_segments, total_length2);
    printf("strokes=%ld fills=%ld defs=%d\n", strokes, fills, def_count);
    return 0;
}
