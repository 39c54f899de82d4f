/*
 * cc -- a miniature compiler, standing in for SPEC92 "gcc": lexes and
 * parses a sequence of assignment statements over integer variables,
 * builds expression trees, runs a constant-folding pass, emits stack-
 * machine code, and then executes the code to report final variable
 * values.  Exercises the symbolic-program shape: a scanner loop, a
 * recursive-descent parser, tree rewriting, and a code-generation
 * switch.
 *
 * Statement form:  name = expression ;   with + - * / % ( ) integer
 * literals, variables, and unary minus.  'print name;' outputs one
 * variable.
 */

#define MAX_SRC   4096
#define MAX_NODES 1024
#define MAX_CODE  4096
#define MAX_VARS  64
#define MAX_STACK 128
#define NAME_LEN  12

/* Token kinds. */
#define T_EOF    0
#define T_NAME   1
#define T_NUMBER 2
#define T_PUNCT  3

/* Tree node kinds. */
#define N_NUM 0
#define N_VAR 1
#define N_ADD 2
#define N_SUB 3
#define N_MUL 4
#define N_DIV 5
#define N_MOD 6
#define N_NEG 7

/* Opcodes. */
#define OP_PUSH  0
#define OP_LOAD  1
#define OP_STORE 2
#define OP_ADD   3
#define OP_SUB   4
#define OP_MUL   5
#define OP_DIV   6
#define OP_MOD   7
#define OP_NEG   8
#define OP_PRINT 9

char source[MAX_SRC];
int source_len;
int position;

int token_kind;
int token_value;
char token_text[NAME_LEN];

int node_kind[MAX_NODES];
int node_value[MAX_NODES];
int node_left[MAX_NODES];
int node_right[MAX_NODES];
int node_count;

int code_op[MAX_CODE];
int code_arg[MAX_CODE];
int code_len;

char var_names[MAX_VARS][NAME_LEN];
int var_values[MAX_VARS];
int var_count;

int folded_nodes;

void compile_error(char *msg)
{
    printf("error near position %d: %s\n", position, msg);
    exit(1);
}

void read_source(void)
{
    int c;
    source_len = 0;
    while ((c = getchar()) != -1) {
        if (source_len >= MAX_SRC - 1)
            compile_error("source too long");
        source[source_len++] = (char)c;
    }
    source[source_len] = 0;
}

/* ------------------------------------------------------------------ */
/* Scanner.                                                            */

void next_token(void)
{
    int c, length;
    while (position < source_len) {
        c = source[position];
        if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
            position++;
        } else if (c == '#') {
            while (position < source_len && source[position] != '\n')
                position++;
        } else {
            break;
        }
    }
    if (position >= source_len) {
        token_kind = T_EOF;
        return;
    }
    c = source[position];
    if (isdigit(c)) {
        int value = 0;
        while (position < source_len && isdigit(source[position])) {
            value = value * 10 + (source[position] - '0');
            position++;
        }
        token_kind = T_NUMBER;
        token_value = value;
        return;
    }
    if (isalpha(c)) {
        length = 0;
        while (position < source_len &&
               (isalnum(source[position]) || source[position] == '_')) {
            if (length < NAME_LEN - 1)
                token_text[length++] = source[position];
            position++;
        }
        token_text[length] = 0;
        token_kind = T_NAME;
        return;
    }
    token_kind = T_PUNCT;
    token_value = c;
    position++;
}

int accept_punct(int c)
{
    if (token_kind == T_PUNCT && token_value == c) {
        next_token();
        return 1;
    }
    return 0;
}

void expect_punct(int c)
{
    if (!accept_punct(c))
        compile_error("unexpected token");
}

/* ------------------------------------------------------------------ */
/* Symbol table.                                                       */

int intern_variable(char *name)
{
    int i;
    for (i = 0; i < var_count; i++)
        if (strcmp(var_names[i], name) == 0)
            return i;
    if (var_count >= MAX_VARS)
        compile_error("too many variables");
    strcpy(var_names[var_count], name);
    var_values[var_count] = 0;
    var_count++;
    return var_count - 1;
}

/* ------------------------------------------------------------------ */
/* Parser.                                                             */

int make_node(int kind, int value, int left, int right)
{
    if (node_count >= MAX_NODES)
        compile_error("expression too large");
    node_kind[node_count] = kind;
    node_value[node_count] = value;
    node_left[node_count] = left;
    node_right[node_count] = right;
    node_count++;
    return node_count - 1;
}

int parse_expression(void);

int parse_primary(void)
{
    if (token_kind == T_NUMBER) {
        int value = token_value;
        next_token();
        return make_node(N_NUM, value, -1, -1);
    }
    if (token_kind == T_NAME) {
        int slot = intern_variable(token_text);
        next_token();
        return make_node(N_VAR, slot, -1, -1);
    }
    if (accept_punct('(')) {
        int inner = parse_expression();
        expect_punct(')');
        return inner;
    }
    if (accept_punct('-'))
        return make_node(N_NEG, 0, parse_primary(), -1);
    compile_error("expected primary expression");
    return -1;
}

int parse_term(void)
{
    int left = parse_primary();
    for (;;) {
        if (accept_punct('*'))
            left = make_node(N_MUL, 0, left, parse_primary());
        else if (accept_punct('/'))
            left = make_node(N_DIV, 0, left, parse_primary());
        else if (accept_punct('%'))
            left = make_node(N_MOD, 0, left, parse_primary());
        else
            return left;
    }
}

int parse_expression(void)
{
    int left = parse_term();
    for (;;) {
        if (accept_punct('+'))
            left = make_node(N_ADD, 0, left, parse_term());
        else if (accept_punct('-'))
            left = make_node(N_SUB, 0, left, parse_term());
        else
            return left;
    }
}

/* ------------------------------------------------------------------ */
/* Constant folding.                                                   */

int is_constant(int node)
{
    return node_kind[node] == N_NUM;
}

int fold(int node)
{
    int kind = node_kind[node];
    int left, right;
    if (kind == N_NUM || kind == N_VAR)
        return node;
    left = fold(node_left[node]);
    node_left[node] = left;
    if (kind == N_NEG) {
        if (is_constant(left)) {
            folded_nodes++;
            return make_node(N_NUM, -node_value[left], -1, -1);
        }
        return node;
    }
    right = fold(node_right[node]);
    node_right[node] = right;
    if (is_constant(left) && is_constant(right)) {
        int a = node_value[left];
        int b = node_value[right];
        int result;
        if (kind == N_ADD)
            result = a + b;
        else if (kind == N_SUB)
            result = a - b;
        else if (kind == N_MUL)
            result = a * b;
        else if (kind == N_DIV) {
            if (b == 0)
                compile_error("constant division by zero");
            result = a / b;
        } else {
            if (b == 0)
                compile_error("constant modulo by zero");
            result = a % b;
        }
        folded_nodes++;
        return make_node(N_NUM, result, -1, -1);
    }
    /* Algebraic identities: x*1, x+0, x*0. */
    if (kind == N_MUL && is_constant(right) && node_value[right] == 1) {
        folded_nodes++;
        return left;
    }
    if (kind == N_ADD && is_constant(right) && node_value[right] == 0) {
        folded_nodes++;
        return left;
    }
    if (kind == N_MUL && is_constant(right) && node_value[right] == 0) {
        folded_nodes++;
        return make_node(N_NUM, 0, -1, -1);
    }
    return node;
}

/* ------------------------------------------------------------------ */
/* Code generation.                                                    */

void emit(int op, int arg)
{
    if (code_len >= MAX_CODE)
        compile_error("code buffer full");
    code_op[code_len] = op;
    code_arg[code_len] = arg;
    code_len++;
}

void generate(int node)
{
    switch (node_kind[node]) {
    case N_NUM:
        emit(OP_PUSH, node_value[node]);
        break;
    case N_VAR:
        emit(OP_LOAD, node_value[node]);
        break;
    case N_NEG:
        generate(node_left[node]);
        emit(OP_NEG, 0);
        break;
    case N_ADD:
    case N_SUB:
    case N_MUL:
    case N_DIV:
    case N_MOD:
        generate(node_left[node]);
        generate(node_right[node]);
        if (node_kind[node] == N_ADD)
            emit(OP_ADD, 0);
        else if (node_kind[node] == N_SUB)
            emit(OP_SUB, 0);
        else if (node_kind[node] == N_MUL)
            emit(OP_MUL, 0);
        else if (node_kind[node] == N_DIV)
            emit(OP_DIV, 0);
        else
            emit(OP_MOD, 0);
        break;
    default:
        compile_error("bad node in codegen");
    }
}

void compile_program(void)
{
    next_token();
    while (token_kind != T_EOF) {
        int target, root;
        if (token_kind != T_NAME)
            compile_error("expected statement");
        if (strcmp(token_text, "print") == 0) {
            next_token();
            if (token_kind != T_NAME)
                compile_error("expected variable to print");
            emit(OP_PRINT, intern_variable(token_text));
            next_token();
        } else {
            target = intern_variable(token_text);
            next_token();
            expect_punct('=');
            root = fold(parse_expression());
            generate(root);
            emit(OP_STORE, target);
        }
        expect_punct(';');
    }
}

/* ------------------------------------------------------------------ */
/* The stack machine.                                                  */

void execute(void)
{
    int stack[MAX_STACK];
    int sp = 0;
    int pc;
    for (pc = 0; pc < code_len; pc++) {
        int op = code_op[pc];
        int arg = code_arg[pc];
        switch (op) {
        case OP_PUSH:
            if (sp >= MAX_STACK)
                compile_error("stack overflow");
            stack[sp++] = arg;
            break;
        case OP_LOAD:
            stack[sp++] = var_values[arg];
            break;
        case OP_STORE:
            var_values[arg] = stack[--sp];
            break;
        case OP_ADD:
            sp--;
            stack[sp - 1] += stack[sp];
            break;
        case OP_SUB:
            sp--;
            stack[sp - 1] -= stack[sp];
            break;
        case OP_MUL:
            sp--;
            stack[sp - 1] *= stack[sp];
            break;
        case OP_DIV:
            sp--;
            if (stack[sp] == 0)
                compile_error("division by zero");
            stack[sp - 1] /= stack[sp];
            break;
        case OP_MOD:
            sp--;
            if (stack[sp] == 0)
                compile_error("modulo by zero");
            stack[sp - 1] %= stack[sp];
            break;
        case OP_NEG:
            stack[sp - 1] = -stack[sp - 1];
            break;
        case OP_PRINT:
            printf("%s = %d\n", var_names[arg], var_values[arg]);
            break;
        default:
            compile_error("bad opcode");
        }
    }
}

int main(void)
{
    read_source();
    compile_program();
    execute();
    printf("nodes=%d folded=%d code=%d vars=%d\n",
           node_count, folded_nodes, code_len, var_count);
    return 0;
}
